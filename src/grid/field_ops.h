#pragma once

// Whole-field operations shared by the AMR model, ROI conversion, metrics
// and benches: restriction/prolongation between resolution levels, region
// copies, and slicing.

#include "grid/field.h"

namespace mrc {

namespace exec {
class ThreadPool;
}

/// Box-average downsampling by an integer factor along every axis.
/// Extents must be divisible by the factor.
[[nodiscard]] FieldF restrict_average(const FieldF& fine, index_t factor);

/// Box-average downsampling by 2 for arbitrary extents: the coarse grid has
/// ceil(n/2) samples per axis and each coarse cell averages its (possibly
/// boundary-clipped) 2x2x2 fine box. The pyramid container's level chain is
/// built by iterating this, so level extents follow ceil_div(dims, 2^level).
[[nodiscard]] FieldF restrict_half(const FieldF& fine);

/// restrict_half with its coarse z-slabs spread across `pool`'s lanes.
/// Every coarse cell is the same expression, so the result is bit-identical
/// to the serial form for any lane count.
[[nodiscard]] FieldF restrict_half(const FieldF& fine, exec::ThreadPool& pool);

/// f.min_max() with slabs spread across `pool`'s lanes: the first smallest
/// and the last largest sample, the ones std::minmax_element picks, so a +-0
/// tie resolves the same for any lane count. NaN samples are skipped (an
/// all-NaN field gives {+inf, -inf}).
[[nodiscard]] std::pair<float, float> min_max(const FieldF& f, exec::ThreadPool& pool);

/// Nearest-neighbor (injection) upsampling to `fine_dims`.
[[nodiscard]] FieldF prolong_nearest(const FieldF& coarse, Dim3 fine_dims);

/// Trilinear upsampling to `fine_dims` (cell-centered alignment).
[[nodiscard]] FieldF prolong_trilinear(const FieldF& coarse, Dim3 fine_dims);

/// prolong_trilinear with its fine z-slabs spread across `pool`'s lanes;
/// bit-identical to the serial form for any lane count.
[[nodiscard]] FieldF prolong_trilinear(const FieldF& coarse, Dim3 fine_dims,
                                       exec::ThreadPool& pool);

/// Coarse footprint of prolong_trilinear over the fine window
/// [fine_origin, fine_origin + fine_extent) of a fine_dims grid: the
/// half-open coarse index range covering both neighbors (i0 and i1) of
/// every fine sample in the window. origin/extent are in coarse indices.
struct SupportBox {
  Coord3 origin;
  Dim3 extent;
};
[[nodiscard]] SupportBox prolong_support(Dim3 coarse_dims, Dim3 fine_dims,
                                         Coord3 fine_origin, Dim3 fine_extent);

/// prolong_trilinear restricted to the fine window [fine_origin,
/// fine_origin + fine_extent), reading coarse samples from `coarse_window`
/// (a copy of the coarse box [window_origin, window_origin +
/// coarse_window.dims()), which must cover prolong_support of the fine
/// window). Sample arithmetic is identical to prolong_trilinear on the full
/// grids, so the result is bit-exact with the same window of the full
/// prolongation — the progressive container's refinement reads depend on
/// this.
[[nodiscard]] FieldF prolong_trilinear_region(const FieldF& coarse_window,
                                              Coord3 window_origin, Dim3 coarse_dims,
                                              Dim3 fine_dims, Coord3 fine_origin,
                                              Dim3 fine_extent);

/// Max |prolong_trilinear(coarse, fine.dims()) - fine| over the fine z-slab
/// [z0, z1), without materializing the prolonged field. This is the pyramid
/// builder's LOD-error kernel; slabs are independent, so callers parallelize
/// by splitting z across a pool.
[[nodiscard]] double prolong_error_slab(const FieldF& coarse, const FieldF& fine,
                                        index_t z0, index_t z1);

/// Pointwise gradient magnitude |∇f| via central differences (one-sided at
/// domain boundaries, unit grid spacing). The adaptive container's default
/// importance signal: high-gradient bricks are where downsampling hurts.
[[nodiscard]] FieldF gradient_magnitude(const FieldF& f);

/// Copies the box [origin, origin+extent) out of `f`.
[[nodiscard]] FieldF extract_region(const FieldF& f, Coord3 origin, Dim3 extent);

/// Writes `region` into `f` at `origin`.
void insert_region(FieldF& f, Coord3 origin, const FieldF& region);

/// Central z-slice as a degenerate (nz == 1) field, used for 2-D SSIM.
[[nodiscard]] FieldF central_slice_z(const FieldF& f);

/// Per-block value range (max - min) over a b^3 tiling — the paper's ROI
/// criterion. Returns one value per block, in block raster order.
[[nodiscard]] std::vector<double> block_value_ranges(const FieldF& f, index_t block);

}  // namespace mrc

#include "grid/field_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "exec/thread_pool.h"

namespace mrc {

namespace {

/// One axis of the cell-centered trilinear map, tabulated over a run of fine
/// indices: fine index `first + k` reads the coarse pair (i0[k], i1[k]) with
/// weight frac[k] on i1. Coarse indices are relative to the first coarse
/// index the caller holds (the window origin; 0 for a full grid).
struct AxisMap {
  std::vector<index_t> i0, i1;
  std::vector<double> frac;
};

AxisMap axis_map(index_t coarse_n, index_t fine_n, index_t first, index_t count,
                 index_t window_lo) {
  // Cell-centered alignment: fine cell center x_f maps to coarse coordinate
  // (x_f + 0.5) * (cd/fd) - 0.5.
  const double r = static_cast<double>(coarse_n) / static_cast<double>(fine_n);
  AxisMap m;
  m.i0.resize(static_cast<std::size_t>(count));
  m.i1.resize(static_cast<std::size_t>(count));
  m.frac.resize(static_cast<std::size_t>(count));
  for (index_t k = 0; k < count; ++k) {
    const double g = (static_cast<double>(first + k) + 0.5) * r - 0.5;
    const index_t lo = std::clamp(static_cast<index_t>(std::floor(g)), index_t{0},
                                  coarse_n - 1);
    const index_t hi = std::clamp(lo + 1, index_t{0}, coarse_n - 1);
    const auto i = static_cast<std::size_t>(k);
    m.frac[i] = std::clamp(g - static_cast<double>(lo), 0.0, 1.0);
    m.i0[i] = lo - window_lo;
    m.i1[i] = hi - window_lo;
  }
  return m;
}

/// The trilinear map of the fine window [fine_origin, fine_origin +
/// fine_extent) of a fine_dims grid onto a coarse_dims grid, of which the
/// caller holds the box starting at window_lo.
struct TrilinearMap {
  AxisMap x, y, z;
};

TrilinearMap trilinear_map(Dim3 coarse_dims, Dim3 fine_dims, Coord3 fine_origin,
                           Dim3 fine_extent, Coord3 window_lo) {
  return {axis_map(coarse_dims.nx, fine_dims.nx, fine_origin.x, fine_extent.nx,
                   window_lo.x),
          axis_map(coarse_dims.ny, fine_dims.ny, fine_origin.y, fine_extent.ny,
                   window_lo.y),
          axis_map(coarse_dims.nz, fine_dims.nz, fine_origin.z, fine_extent.nz,
                   window_lo.z)};
}

/// The one trilinear kernel: row (y, z) of the map — table indices, not grid
/// indices — into out[0, m.x.i0.size()). Every prolongation in the library
/// (full, windowed, pooled, error-only) evaluates this expression, so they
/// agree bit for bit.
void trilinear_row(const FieldF& coarse, const TrilinearMap& m, index_t y, index_t z,
                   float* out) {
  const auto yi = static_cast<std::size_t>(y), zi = static_cast<std::size_t>(z);
  const double fy = m.y.frac[yi], fz = m.z.frac[zi];
  const float* r00 = &coarse.at(0, m.y.i0[yi], m.z.i0[zi]);
  const float* r10 = &coarse.at(0, m.y.i1[yi], m.z.i0[zi]);
  const float* r01 = &coarse.at(0, m.y.i0[yi], m.z.i1[zi]);
  const float* r11 = &coarse.at(0, m.y.i1[yi], m.z.i1[zi]);
  const std::size_t nx = m.x.i0.size();
  const index_t* x0s = m.x.i0.data();
  const index_t* x1s = m.x.i1.data();
  const double* fxs = m.x.frac.data();
  for (std::size_t x = 0; x < nx; ++x) {
    const index_t x0 = x0s[x], x1 = x1s[x];
    const double fx = fxs[x];
    const double c00 = r00[x0] * (1 - fx) + r00[x1] * fx;
    const double c10 = r10[x0] * (1 - fx) + r10[x1] * fx;
    const double c01 = r01[x0] * (1 - fx) + r01[x1] * fx;
    const double c11 = r11[x0] * (1 - fx) + r11[x1] * fx;
    const double c0 = c00 * (1 - fy) + c10 * fy;
    const double c1 = c01 * (1 - fy) + c11 * fy;
    out[x] = static_cast<float>(c0 * (1 - fz) + c1 * fz);
  }
}

/// Map rows z in [z0, z1) stored contiguously (x fastest) from `out`, which
/// points at row (0, z0) of a field of the map's extent.
void trilinear_slab(const FieldF& coarse, const TrilinearMap& m, index_t z0, index_t z1,
                    float* out) {
  const auto nx = static_cast<index_t>(m.x.i0.size());
  const auto ny = static_cast<index_t>(m.y.i0.size());
  for (index_t z = z0; z < z1; ++z)
    for (index_t y = 0; y < ny; ++y)
      trilinear_row(coarse, m, y, z, out + ((z - z0) * ny + y) * nx);
}

/// Coarse z-slab [z_lo, z_hi) of restrict_half(fine) into `coarse`.
void restrict_half_slab(const FieldF& fine, FieldF& coarse, index_t z_lo, index_t z_hi) {
  const Dim3 fd = fine.dims();
  const Dim3 cd = coarse.dims();
  for (index_t z = z_lo; z < z_hi; ++z) {
    const index_t z0 = 2 * z, z1 = std::min(z0 + 2, fd.nz);
    for (index_t y = 0; y < cd.ny; ++y) {
      const index_t y0 = 2 * y, y1 = std::min(y0 + 2, fd.ny);
      for (index_t x = 0; x < cd.nx; ++x) {
        const index_t x0 = 2 * x, x1 = std::min(x0 + 2, fd.nx);
        double sum = 0.0;
        for (index_t k = z0; k < z1; ++k)
          for (index_t j = y0; j < y1; ++j)
            for (index_t i = x0; i < x1; ++i) sum += fine.at(i, j, k);
        coarse.at(x, y, z) = static_cast<float>(
            sum / static_cast<double>((x1 - x0) * (y1 - y0) * (z1 - z0)));
      }
    }
  }
}

}  // namespace

FieldF restrict_average(const FieldF& fine, index_t factor) {
  MRC_REQUIRE(factor >= 1, "bad restriction factor");
  const Dim3 fd = fine.dims();
  MRC_REQUIRE(fd.nx % factor == 0 && fd.ny % factor == 0 && fd.nz % factor == 0,
              "extents not divisible by restriction factor");
  const Dim3 cd{fd.nx / factor, fd.ny / factor, fd.nz / factor};
  FieldF coarse(cd);
  const double inv = 1.0 / static_cast<double>(factor * factor * factor);
  for (index_t z = 0; z < cd.nz; ++z)
    for (index_t y = 0; y < cd.ny; ++y)
      for (index_t x = 0; x < cd.nx; ++x) {
        double sum = 0.0;
        for (index_t k = 0; k < factor; ++k)
          for (index_t j = 0; j < factor; ++j)
            for (index_t i = 0; i < factor; ++i)
              sum += fine.at(x * factor + i, y * factor + j, z * factor + k);
        coarse.at(x, y, z) = static_cast<float>(sum * inv);
      }
  return coarse;
}

FieldF restrict_half(const FieldF& fine) {
  MRC_REQUIRE(!fine.empty(), "restrict_half of empty field");
  FieldF coarse(blocks_for(fine.dims(), 2));
  restrict_half_slab(fine, coarse, 0, coarse.dims().nz);
  return coarse;
}

FieldF restrict_half(const FieldF& fine, exec::ThreadPool& pool) {
  MRC_REQUIRE(!fine.empty(), "restrict_half of empty field");
  FieldF coarse(blocks_for(fine.dims(), 2));
  pool.parallel_slabs(coarse.dims().nz, [&](index_t, index_t z_lo, index_t z_hi) {
    restrict_half_slab(fine, coarse, z_lo, z_hi);
  });
  return coarse;
}
std::pair<float, float> min_max(const FieldF& f, exec::ThreadPool& pool) {
  MRC_REQUIRE(!f.empty(), "min_max of empty field");
  // A strict `<` keeps the earliest minimum, `<=` takes the latest maximum,
  // and both comparisons fail for NaN — per slab and again across slabs in
  // slab order.
  constexpr float inf = std::numeric_limits<float>::infinity();
  std::vector<std::pair<float, float>> slabs(static_cast<std::size_t>(pool.slab_count(f.size())),
                                             {inf, -inf});
  pool.parallel_slabs(f.size(), [&](index_t s, index_t i0, index_t i1) {
    float lo = inf, hi = -inf;
    for (index_t i = i0; i < i1; ++i) {
      if (f[i] < lo) lo = f[i];
      if (hi <= f[i]) hi = f[i];
    }
    slabs[static_cast<std::size_t>(s)] = {lo, hi};
  });
  float lo = inf, hi = -inf;
  for (const auto& [slo, shi] : slabs) {
    if (slo < lo) lo = slo;
    if (hi <= shi) hi = shi;
  }
  return {lo, hi};
}

FieldF prolong_nearest(const FieldF& coarse, Dim3 fine_dims) {
  const Dim3 cd = coarse.dims();
  FieldF fine(fine_dims);
  for (index_t z = 0; z < fine_dims.nz; ++z) {
    const index_t cz = std::min(z * cd.nz / fine_dims.nz, cd.nz - 1);
    for (index_t y = 0; y < fine_dims.ny; ++y) {
      const index_t cy = std::min(y * cd.ny / fine_dims.ny, cd.ny - 1);
      for (index_t x = 0; x < fine_dims.nx; ++x) {
        const index_t cx = std::min(x * cd.nx / fine_dims.nx, cd.nx - 1);
        fine.at(x, y, z) = coarse.at(cx, cy, cz);
      }
    }
  }
  return fine;
}

FieldF prolong_trilinear(const FieldF& coarse, Dim3 fine_dims) {
  FieldF fine(fine_dims);
  const TrilinearMap m = trilinear_map(coarse.dims(), fine_dims, {}, fine_dims, {});
  trilinear_slab(coarse, m, 0, fine_dims.nz, fine.data());
  return fine;
}

FieldF prolong_trilinear(const FieldF& coarse, Dim3 fine_dims, exec::ThreadPool& pool) {
  FieldF fine(fine_dims);
  const TrilinearMap m = trilinear_map(coarse.dims(), fine_dims, {}, fine_dims, {});
  const index_t plane = fine_dims.nx * fine_dims.ny;
  pool.parallel_slabs(fine_dims.nz, [&](index_t, index_t z0, index_t z1) {
    trilinear_slab(coarse, m, z0, z1, fine.data() + z0 * plane);
  });
  return fine;
}
SupportBox prolong_support(Dim3 coarse_dims, Dim3 fine_dims, Coord3 fine_origin,
                           Dim3 fine_extent) {
  MRC_REQUIRE(fine_extent.nx >= 1 && fine_extent.ny >= 1 && fine_extent.nz >= 1,
              "prolong_support: empty fine window");
  MRC_REQUIRE(fine_origin.x >= 0 && fine_origin.y >= 0 && fine_origin.z >= 0 &&
                  fine_origin.x + fine_extent.nx <= fine_dims.nx &&
                  fine_origin.y + fine_extent.ny <= fine_dims.ny &&
                  fine_origin.z + fine_extent.nz <= fine_dims.nz,
              "prolong_support: fine window outside grid");
  // g(x) is monotone in x, so the first sample's i0 and the last sample's i1
  // bound the footprint along each axis.
  auto axis = [](index_t cd, index_t fd, index_t lo, index_t n, index_t& out_lo,
                 index_t& out_n) {
    const double r = static_cast<double>(cd) / static_cast<double>(fd);
    auto i0_of = [&](index_t x) {
      const double g = (static_cast<double>(x) + 0.5) * r - 0.5;
      return std::clamp(static_cast<index_t>(std::floor(g)), index_t{0}, cd - 1);
    };
    const index_t first = i0_of(lo);
    const index_t last = std::clamp(i0_of(lo + n - 1) + 1, index_t{0}, cd - 1);
    out_lo = first;
    out_n = last + 1 - first;
  };
  SupportBox s;
  axis(coarse_dims.nx, fine_dims.nx, fine_origin.x, fine_extent.nx, s.origin.x,
       s.extent.nx);
  axis(coarse_dims.ny, fine_dims.ny, fine_origin.y, fine_extent.ny, s.origin.y,
       s.extent.ny);
  axis(coarse_dims.nz, fine_dims.nz, fine_origin.z, fine_extent.nz, s.origin.z,
       s.extent.nz);
  return s;
}

FieldF prolong_trilinear_region(const FieldF& coarse_window, Coord3 window_origin,
                                Dim3 coarse_dims, Dim3 fine_dims, Coord3 fine_origin,
                                Dim3 fine_extent) {
  const SupportBox need =
      prolong_support(coarse_dims, fine_dims, fine_origin, fine_extent);
  const Dim3 wd = coarse_window.dims();
  MRC_REQUIRE(window_origin.x <= need.origin.x && window_origin.y <= need.origin.y &&
                  window_origin.z <= need.origin.z &&
                  window_origin.x + wd.nx >= need.origin.x + need.extent.nx &&
                  window_origin.y + wd.ny >= need.origin.y + need.extent.ny &&
                  window_origin.z + wd.nz >= need.origin.z + need.extent.nz,
              "prolong_trilinear_region: coarse window does not cover the support");
  // The tables are built at global fine indices against the global coarse
  // dims, then shifted into the window, so every sample is the same double
  // expression as in prolong_trilinear: bit-identical to the same window of
  // the full prolongation.
  FieldF fine(fine_extent);
  const TrilinearMap m =
      trilinear_map(coarse_dims, fine_dims, fine_origin, fine_extent, window_origin);
  trilinear_slab(coarse_window, m, 0, fine_extent.nz, fine.data());
  return fine;
}

double prolong_error_slab(const FieldF& coarse, const FieldF& fine, index_t z0,
                          index_t z1) {
  const Dim3 fd = fine.dims();
  MRC_REQUIRE(z0 >= 0 && z0 <= z1 && z1 <= fd.nz, "bad prolongation slab");
  // The prolonged rows of the slab, compared against `fine` one row at a
  // time instead of stored.
  const TrilinearMap m = trilinear_map(coarse.dims(), fd, {0, 0, z0},
                                       {fd.nx, fd.ny, z1 - z0}, {});
  std::vector<float> row(static_cast<std::size_t>(fd.nx));
  double err = 0.0;
  for (index_t z = z0; z < z1; ++z)
    for (index_t y = 0; y < fd.ny; ++y) {
      trilinear_row(coarse, m, y, z - z0, row.data());
      const float* f = &fine.at(0, y, z);
      for (index_t x = 0; x < fd.nx; ++x)
        err = std::max(err, std::abs(static_cast<double>(row[static_cast<std::size_t>(x)]) -
                                     static_cast<double>(f[x])));
    }
  return err;
}

FieldF gradient_magnitude(const FieldF& f) {
  MRC_REQUIRE(!f.empty(), "gradient_magnitude of empty field");
  const Dim3 d = f.dims();
  FieldF g(d);
  for (index_t z = 0; z < d.nz; ++z)
    for (index_t y = 0; y < d.ny; ++y)
      for (index_t x = 0; x < d.nx; ++x) {
        auto diff = [&](index_t lo_x, index_t lo_y, index_t lo_z, index_t hi_x,
                        index_t hi_y, index_t hi_z, index_t span) {
          return span == 0 ? 0.0
                           : (static_cast<double>(f.at(hi_x, hi_y, hi_z)) -
                              static_cast<double>(f.at(lo_x, lo_y, lo_z))) /
                                 static_cast<double>(span);
        };
        const index_t xm = std::max<index_t>(x - 1, 0), xp = std::min(x + 1, d.nx - 1);
        const index_t ym = std::max<index_t>(y - 1, 0), yp = std::min(y + 1, d.ny - 1);
        const index_t zm = std::max<index_t>(z - 1, 0), zp = std::min(z + 1, d.nz - 1);
        const double gx = diff(xm, y, z, xp, y, z, xp - xm);
        const double gy = diff(x, ym, z, x, yp, z, yp - ym);
        const double gz = diff(x, y, zm, x, y, zp, zp - zm);
        g.at(x, y, z) = static_cast<float>(std::sqrt(gx * gx + gy * gy + gz * gz));
      }
  return g;
}

FieldF extract_region(const FieldF& f, Coord3 origin, Dim3 extent) {
  MRC_REQUIRE(origin.x >= 0 && origin.y >= 0 && origin.z >= 0 &&
                  origin.x + extent.nx <= f.dims().nx &&
                  origin.y + extent.ny <= f.dims().ny &&
                  origin.z + extent.nz <= f.dims().nz,
              "region outside field");
  FieldF r(extent);
  for (index_t z = 0; z < extent.nz; ++z)
    for (index_t y = 0; y < extent.ny; ++y)
      for (index_t x = 0; x < extent.nx; ++x)
        r.at(x, y, z) = f.at(origin.x + x, origin.y + y, origin.z + z);
  return r;
}

void insert_region(FieldF& f, Coord3 origin, const FieldF& region) {
  const Dim3 e = region.dims();
  MRC_REQUIRE(origin.x >= 0 && origin.y >= 0 && origin.z >= 0 &&
                  origin.x + e.nx <= f.dims().nx && origin.y + e.ny <= f.dims().ny &&
                  origin.z + e.nz <= f.dims().nz,
              "region outside field");
  for (index_t z = 0; z < e.nz; ++z)
    for (index_t y = 0; y < e.ny; ++y)
      for (index_t x = 0; x < e.nx; ++x)
        f.at(origin.x + x, origin.y + y, origin.z + z) = region.at(x, y, z);
}

FieldF central_slice_z(const FieldF& f) {
  const Dim3 d = f.dims();
  return extract_region(f, {0, 0, d.nz / 2}, {d.nx, d.ny, 1});
}

std::vector<double> block_value_ranges(const FieldF& f, index_t block) {
  MRC_REQUIRE(block >= 1, "bad block size");
  const Dim3 d = f.dims();
  const Dim3 nb = blocks_for(d, block);
  std::vector<double> ranges(static_cast<std::size_t>(nb.size()));
  for (index_t bz = 0; bz < nb.nz; ++bz)
    for (index_t by = 0; by < nb.ny; ++by)
      for (index_t bx = 0; bx < nb.nx; ++bx) {
        float lo = f.at(bx * block, by * block, bz * block);
        float hi = lo;
        const index_t ex = std::min(block, d.nx - bx * block);
        const index_t ey = std::min(block, d.ny - by * block);
        const index_t ez = std::min(block, d.nz - bz * block);
        for (index_t k = 0; k < ez; ++k)
          for (index_t j = 0; j < ey; ++j)
            for (index_t i = 0; i < ex; ++i) {
              const float v = f.at(bx * block + i, by * block + j, bz * block + k);
              lo = std::min(lo, v);
              hi = std::max(hi, v);
            }
        ranges[static_cast<std::size_t>(nb.index(bx, by, bz))] =
            static_cast<double>(hi) - static_cast<double>(lo);
      }
  return ranges;
}

}  // namespace mrc

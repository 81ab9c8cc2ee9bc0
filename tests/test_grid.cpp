#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <limits>

#include "exec/thread_pool.h"
#include "grid/field_ops.h"
#include "grid/multires.h"
#include "test_util.h"

namespace mrc {
namespace {

using test::smooth_field;

TEST(FieldOps, RestrictAverageExact) {
  FieldF f({4, 4, 4});
  for (index_t i = 0; i < f.size(); ++i) f[i] = static_cast<float>(i);
  const FieldF c = restrict_average(f, 2);
  EXPECT_EQ(c.dims(), Dim3(2, 2, 2));
  // First coarse cell averages fine cells (0,0,0),(1,0,0),(0,1,0),(1,1,0),
  // (0,0,1),(1,0,1),(0,1,1),(1,1,1) -> indices 0,1,4,5,16,17,20,21.
  const double expected = (0 + 1 + 4 + 5 + 16 + 17 + 20 + 21) / 8.0;
  EXPECT_FLOAT_EQ(c.at(0, 0, 0), static_cast<float>(expected));
}

TEST(FieldOps, RestrictRejectsIndivisible) {
  FieldF f({5, 4, 4});
  EXPECT_THROW((void)restrict_average(f, 2), ContractError);
}

TEST(FieldOps, ProlongNearestInvertsRestrictionOfConstant) {
  FieldF f({8, 8, 8}, 3.5f);
  const FieldF c = restrict_average(f, 2);
  const FieldF up = prolong_nearest(c, {8, 8, 8});
  for (index_t i = 0; i < up.size(); ++i) EXPECT_FLOAT_EQ(up[i], 3.5f);
}

TEST(FieldOps, ProlongTrilinearPreservesLinearRamp) {
  FieldF coarse({4, 4, 4});
  for (index_t z = 0; z < 4; ++z)
    for (index_t y = 0; y < 4; ++y)
      for (index_t x = 0; x < 4; ++x) coarse.at(x, y, z) = static_cast<float>(x);
  const FieldF fine = prolong_trilinear(coarse, {8, 8, 8});
  // In the interior, a linear ramp must stay linear: fine x=3 maps to coarse
  // coordinate (3+0.5)*0.5-0.5 = 1.25.
  EXPECT_NEAR(fine.at(3, 4, 4), 1.25f, 1e-5);
}

TEST(FieldOps, GradientMagnitudeExactOnRamps) {
  // |∇(2x + 3y + 6z)| = sqrt(4 + 9 + 36) = 7 everywhere, boundaries
  // included (one-sided differences are exact on linear data too).
  FieldF f({8, 8, 8});
  for (index_t z = 0; z < 8; ++z)
    for (index_t y = 0; y < 8; ++y)
      for (index_t x = 0; x < 8; ++x)
        f.at(x, y, z) = static_cast<float>(2 * x + 3 * y + 6 * z);
  const FieldF g = gradient_magnitude(f);
  ASSERT_EQ(g.dims(), f.dims());
  for (index_t i = 0; i < g.size(); ++i) EXPECT_NEAR(g[i], 7.0f, 1e-5);
}

TEST(FieldOps, GradientMagnitudeFlatAndDegenerate) {
  const FieldF flat({6, 5, 4}, 3.0f);
  const FieldF g = gradient_magnitude(flat);
  for (index_t i = 0; i < g.size(); ++i) EXPECT_FLOAT_EQ(g[i], 0.0f);
  // A single-sample axis has no differences along it — and must not fault.
  const FieldF line = gradient_magnitude(FieldF({16, 1, 1}, 2.0f));
  for (index_t i = 0; i < line.size(); ++i) EXPECT_FLOAT_EQ(line[i], 0.0f);
  EXPECT_THROW((void)gradient_magnitude(FieldF{}), ContractError);
}

TEST(FieldOps, ExtractInsertRoundTrip) {
  FieldF f = smooth_field({12, 12, 12});
  const FieldF r = extract_region(f, {2, 3, 4}, {5, 4, 3});
  FieldF g({12, 12, 12}, 0.0f);
  insert_region(g, {2, 3, 4}, r);
  EXPECT_FLOAT_EQ(g.at(2, 3, 4), f.at(2, 3, 4));
  EXPECT_FLOAT_EQ(g.at(6, 6, 6), f.at(6, 6, 6));
  EXPECT_FLOAT_EQ(g.at(0, 0, 0), 0.0f);
}

TEST(FieldOps, ExtractOutOfRangeThrows) {
  FieldF f({4, 4, 4});
  EXPECT_THROW((void)extract_region(f, {2, 0, 0}, {4, 1, 1}), ContractError);
}

TEST(FieldOps, CentralSlice) {
  FieldF f = smooth_field({6, 7, 8});
  const FieldF s = central_slice_z(f);
  EXPECT_EQ(s.dims(), Dim3(6, 7, 1));
  EXPECT_FLOAT_EQ(s.at(3, 3, 0), f.at(3, 3, 4));
}

TEST(FieldOps, BlockValueRanges) {
  FieldF f({8, 4, 4}, 1.0f);
  f.at(1, 1, 1) = 11.0f;  // only block (0,0,0) has range 10
  const auto ranges = block_value_ranges(f, 4);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_DOUBLE_EQ(ranges[0], 10.0);
  EXPECT_DOUBLE_EQ(ranges[1], 0.0);
}

// ---------------------------------------------------------------------------
// The shared trilinear kernel and the pooled whole-field passes. Extents are
// deliberately awkward: odd halvings (65 -> 33), 1-wide axes, and more pool
// lanes than z-planes. Equality is bitwise, not approximate.
// ---------------------------------------------------------------------------

bool same_bits(const FieldF& a, const FieldF& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.size()) * 4) == 0;
}

/// Fine grids paired with the coarse grid each is prolonged from.
std::vector<std::pair<Dim3, Dim3>> awkward_prolongations() {
  return {{{65, 9, 33}, {33, 5, 17}},
          {{65, 1, 7}, {33, 1, 4}},
          {{1, 37, 29}, {1, 19, 15}},
          {{13, 11, 3}, {5, 3, 2}},  // not a halving at all
          {{8, 8, 8}, {8, 8, 8}}};   // ratio 1
}

TEST(FieldOps, ProlongRegionEqualsWindowOfFullProlongation) {
  for (const auto& [fd, cd] : awkward_prolongations()) {
    const FieldF coarse = test::noise_field(cd, 5.0, 7);
    const FieldF full = prolong_trilinear(coarse, fd);
    const Dim3 steps{std::max<index_t>(1, fd.nx / 4), std::max<index_t>(1, fd.ny / 3),
                     std::max<index_t>(1, fd.nz / 3)};
    for (index_t z0 = 0; z0 < fd.nz; z0 += steps.nz)
      for (index_t y0 = 0; y0 < fd.ny; y0 += steps.ny)
        for (index_t x0 = 0; x0 < fd.nx; x0 += steps.nx) {
          const Coord3 o{x0, y0, z0};
          const Dim3 e{std::min<index_t>(fd.nx - x0, 2 * steps.nx + 1),
                       std::min<index_t>(fd.ny - y0, steps.ny + 2),
                       std::min<index_t>(fd.nz - z0, steps.nz)};
          const SupportBox s = prolong_support(cd, fd, o, e);
          const FieldF window = extract_region(coarse, s.origin, s.extent);
          const FieldF region = prolong_trilinear_region(window, s.origin, cd, fd, o, e);
          ASSERT_TRUE(same_bits(region, extract_region(full, o, e)))
              << fd.str() << " window at " << x0 << "," << y0 << "," << z0;
        }
  }
}

TEST(FieldOps, ProlongErrorSlabsMaxToTheFullDifference) {
  for (const auto& [fd, cd] : awkward_prolongations()) {
    const FieldF fine = test::noise_field(fd, 3.0, 11);
    const FieldF coarse = test::noise_field(cd, 3.0, 12);
    const FieldF up = prolong_trilinear(coarse, fd);
    double want = 0.0;
    for (index_t i = 0; i < fine.size(); ++i)
      want = std::max(want, std::abs(static_cast<double>(up[i]) -
                                     static_cast<double>(fine[i])));
    EXPECT_EQ(prolong_error_slab(coarse, fine, 0, fd.nz), want) << fd.str();
    // Every z-plane on its own, then an uneven three-way split.
    double per_plane = 0.0;
    for (index_t z = 0; z < fd.nz; ++z)
      per_plane = std::max(per_plane, prolong_error_slab(coarse, fine, z, z + 1));
    EXPECT_EQ(per_plane, want) << fd.str();
    const index_t a = fd.nz / 3, b = std::max(a, fd.nz - 1);
    EXPECT_EQ(std::max({prolong_error_slab(coarse, fine, 0, a),
                        prolong_error_slab(coarse, fine, a, b),
                        prolong_error_slab(coarse, fine, b, fd.nz)}),
              want)
        << fd.str();
    EXPECT_EQ(prolong_error_slab(coarse, fine, a, a), 0.0);
  }
}

TEST(FieldOps, PooledPassesMatchSerialForAnyLaneCount) {
  for (const auto& [fd, cd] : awkward_prolongations()) {
    const FieldF fine = test::noise_field(fd, 4.0, 21);
    const FieldF coarse = test::noise_field(cd, 4.0, 22);
    const FieldF restricted = restrict_half(fine);
    const FieldF prolonged = prolong_trilinear(coarse, fd);
    for (int lanes : {1, 3, 7}) {
      exec::ThreadPool pool(lanes);
      EXPECT_TRUE(same_bits(restrict_half(fine, pool), restricted))
          << fd.str() << " lanes " << lanes;
      EXPECT_TRUE(same_bits(prolong_trilinear(coarse, fd, pool), prolonged))
          << fd.str() << " lanes " << lanes;
      const auto [lo, hi] = min_max(fine, pool);
      const auto [want_lo, want_hi] = fine.min_max();
      EXPECT_EQ(lo, want_lo);
      EXPECT_EQ(hi, want_hi);
    }
  }
}

TEST(FieldOps, PooledMinMaxResolvesSignedZeroTiesLikeMinmaxElement) {
  // std::minmax_element returns the first smallest and the last largest; a
  // slab split must not flip the sign of a zero extreme. `a` ends in -0 (its
  // max is -0, its min the leading +0), `b` starts with -0 (min -0, max +0).
  FieldF a({5, 3, 4}, 0.0f);
  a[a.size() - 1] = -0.0f;
  FieldF b({5, 3, 4}, 0.0f);
  b[0] = -0.0f;
  for (int lanes : {1, 3, 7}) {
    exec::ThreadPool pool(lanes);
    const auto [a_lo, a_hi] = min_max(a, pool);
    EXPECT_FALSE(std::signbit(a_lo)) << lanes;
    EXPECT_TRUE(std::signbit(a_hi)) << lanes;
    const auto [b_lo, b_hi] = min_max(b, pool);
    EXPECT_TRUE(std::signbit(b_lo)) << lanes;
    EXPECT_FALSE(std::signbit(b_hi)) << lanes;
  }
  EXPECT_TRUE(std::signbit(a.min_max().second));
  EXPECT_TRUE(std::signbit(b.min_max().first));
  // NaN samples are skipped wherever they sit, so the extremes cannot depend
  // on where the slabs start.
  FieldF g({7, 1, 9}, 1.0f);
  g[0] = std::numeric_limits<float>::quiet_NaN();
  g[20] = -3.0f;
  g[40] = std::numeric_limits<float>::quiet_NaN();
  g[50] = 8.0f;
  for (int lanes : {1, 3, 7}) {
    exec::ThreadPool pool(lanes);
    const auto [lo, hi] = min_max(g, pool);
    EXPECT_EQ(lo, -3.0f) << lanes;
    EXPECT_EQ(hi, 8.0f) << lanes;
  }
}

// ---------------------------------------------------------------------------
// AMR hierarchy construction.
// ---------------------------------------------------------------------------

TEST(Amr, TwoLevelDensitiesMatchFractions) {
  const FieldF f = test::noise_field({64, 64, 64}, 10.0);
  const std::array<double, 2> fr{0.25, 0.75};
  const auto mr = amr::build_hierarchy(f, 16, fr);
  ASSERT_EQ(mr.levels.size(), 2u);
  EXPECT_EQ(mr.levels[0].ratio, 1);
  EXPECT_EQ(mr.levels[1].ratio, 2);
  EXPECT_NEAR(mr.levels[0].density(), 0.25, 0.02);
  EXPECT_NEAR(mr.levels[1].density(), 0.75, 0.02);
}

TEST(Amr, ThreeLevelStructure) {
  const FieldF f = test::noise_field({64, 64, 64}, 10.0);
  const std::array<double, 3> fr{0.15, 0.31, 0.54};
  const auto mr = amr::build_hierarchy(f, 16, fr);
  ASSERT_EQ(mr.levels.size(), 3u);
  EXPECT_EQ(mr.levels[2].ratio, 4);
  EXPECT_EQ(mr.levels[2].data.dims(), Dim3(16, 16, 16));
  EXPECT_NEAR(mr.levels[0].density(), 0.15, 0.03);
}

TEST(Amr, EveryFineCellCoveredExactlyOnce) {
  const FieldF f = test::noise_field({32, 32, 32}, 5.0);
  const std::array<double, 2> fr{0.5, 0.5};
  const auto mr = amr::build_hierarchy(f, 8, fr);
  // Project all masks to the fine grid; each cell must be covered once.
  for (index_t z = 0; z < 32; ++z)
    for (index_t y = 0; y < 32; ++y)
      for (index_t x = 0; x < 32; ++x) {
        int covered = 0;
        for (const auto& lev : mr.levels)
          covered += lev.mask.at(x / lev.ratio, y / lev.ratio, z / lev.ratio) ? 1 : 0;
        ASSERT_EQ(covered, 1) << "cell " << x << "," << y << "," << z;
      }
}

TEST(Amr, HighRangeBlocksGoToFineLevel) {
  // A field with activity confined to one corner: that corner must be
  // kept at level 0.
  FieldF f({32, 32, 32}, 0.0f);
  for (index_t z = 0; z < 8; ++z)
    for (index_t y = 0; y < 8; ++y)
      for (index_t x = 0; x < 8; ++x)
        f.at(x, y, z) = static_cast<float>((x + y + z) % 7);
  const std::array<double, 2> fr{0.02, 0.98};  // one block's worth
  const auto mr = amr::build_hierarchy(f, 8, fr);
  EXPECT_EQ(mr.levels[0].mask.at(0, 0, 0), 1);
  EXPECT_EQ(mr.levels[0].mask.at(31, 31, 31), 0);
}

TEST(Amr, ReconstructUniformExactOnFineRegions) {
  const FieldF f = smooth_field({32, 32, 32});
  const std::array<double, 2> fr{0.5, 0.5};
  const auto mr = amr::build_hierarchy(f, 8, fr);
  const FieldF rec = mr.reconstruct_uniform();
  for (index_t i = 0; i < f.size(); ++i) {
    if (mr.levels[0].mask[i]) {
      EXPECT_FLOAT_EQ(rec[i], f[i]);
    }
  }
}

TEST(Amr, ReconstructUniformCloseEverywhereOnSmoothData) {
  const FieldF f = smooth_field({32, 32, 32}, 100.0);
  const std::array<double, 2> fr{0.3, 0.7};
  const auto mr = amr::build_hierarchy(f, 8, fr);
  const FieldF rec = mr.reconstruct_uniform();
  // Coarse regions are smooth by construction, so 2x downsample + trilinear
  // upsample stays close.
  double max_err = 0;
  for (index_t i = 0; i < f.size(); ++i)
    max_err = std::max(max_err, std::abs(static_cast<double>(f[i]) - rec[i]));
  EXPECT_LT(max_err, 15.0);
}

TEST(Amr, StoredSamplesLessThanUniform) {
  const FieldF f = test::noise_field({32, 32, 32}, 3.0);
  const std::array<double, 2> fr{0.25, 0.75};
  const auto mr = amr::build_hierarchy(f, 8, fr);
  // 25% at full res + 75% at 1/8 resolution ≈ 34% of the original samples.
  EXPECT_LT(mr.stored_samples(), f.size() / 2);
  EXPECT_GT(mr.stored_samples(), f.size() / 5);
}

TEST(Amr, RejectsBadBlockSize) {
  const FieldF f = smooth_field({32, 32, 32});
  const std::array<double, 2> fr{0.5, 0.5};
  EXPECT_THROW((void)amr::build_hierarchy(f, 12, fr), ContractError);  // not 2^n
  EXPECT_THROW((void)amr::build_hierarchy(f, 0, fr), ContractError);
}

TEST(Amr, RejectsIndivisibleExtents) {
  const FieldF f = smooth_field({30, 32, 32});
  const std::array<double, 2> fr{0.5, 0.5};
  EXPECT_THROW((void)amr::build_hierarchy(f, 8, fr), ContractError);
}

}  // namespace
}  // namespace mrc

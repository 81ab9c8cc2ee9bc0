#include "progressive/progressive.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "exec/thread_pool.h"
#include "grid/field_ops.h"
#include "obs/obs.h"

namespace mrc::progressive {

namespace {

/// Smallest possible level record: 5 single-byte varints + six f32s.
inline constexpr std::size_t kMinLevelRecord = 29;

/// acc[i] = acc[i] + add[i] over the flat index range [lo, hi), accumulated
/// in double and rounded once to float — the single reconstruction step
/// recon = prolong + residual. Build, full decode, windowed reads and the
/// wire client all go through this exact expression, which is what makes
/// every path bit-identical.
void add_range(FieldF& acc, const FieldF& add, index_t lo, index_t hi) {
  for (index_t i = lo; i < hi; ++i)
    acc[i] = static_cast<float>(static_cast<double>(acc[i]) + static_cast<double>(add[i]));
}

void add_into(FieldF& acc, const FieldF& add, exec::ThreadPool& pool) {
  MRC_REQUIRE(acc.dims() == add.dims(), "progressive: addend extents mismatch");
  pool.parallel_slabs(acc.size(), [&](index_t, index_t lo, index_t hi) {
    add_range(acc, add, lo, hi);
  });
}

/// out = data - base per sample (double accumulate, one float rounding),
/// across the pool; `out` may be `base` itself (the pass is per-sample).
/// Returns max |out|, fused into the same pass.
float residual_into(const FieldF& data, const FieldF& base, FieldF& out,
                    exec::ThreadPool& pool) {
  MRC_REQUIRE(data.dims() == base.dims() && data.dims() == out.dims(),
              "progressive: residual extents mismatch");
  std::vector<float> maxes(static_cast<std::size_t>(pool.slab_count(data.size())), 0.0f);
  pool.parallel_slabs(data.size(), [&](index_t s, index_t lo, index_t hi) {
    float m = 0.0f;
    for (index_t i = lo; i < hi; ++i) {
      out[i] = static_cast<float>(static_cast<double>(data[i]) -
                                  static_cast<double>(base[i]));
      m = std::max(m, std::abs(out[i]));
    }
    maxes[static_cast<std::size_t>(s)] = m;
  });
  return maxes.empty() ? 0.0f : *std::max_element(maxes.begin(), maxes.end());
}

/// llround(v / 2eb) into `key`, or false when llround's result would be
/// unspecified: NaN, +-Inf and |v / 2eb| >= 2^63.
bool bin_key(float v, double eb, long long& key) {
  const double q = static_cast<double>(v) / (2.0 * eb);
  if (!(std::abs(q) < 0x1p63)) return false;  // NaN fails every comparison
  // llround without the libm call: t = trunc(q) is exact in range, and so
  // is q - t (|q| >= 2^52 is already an integer); a fraction of +-0.5 or
  // more rounds away from zero.
  const auto t = static_cast<long long>(q);
  const double frac = q - static_cast<double>(t);
  key = t + (frac >= 0.5 ? 1 : 0) - (frac <= -0.5 ? 1 : 0);
  return true;
}

/// Folds one bin of `count` out of `n` samples into the Shannon sum `h`.
void add_bin(double& h, std::uint64_t count, double n) {
  if (count == 0) return;
  const double p = static_cast<double>(count) / n;
  h -= p * std::log2(p);
}

}  // namespace

namespace detail {

float bin_entropy(const FieldF& f, double eb, exec::ThreadPool& pool) {
  MRC_REQUIRE(eb > 0.0, "progressive: entropy bin width must be positive");
  const index_t n = f.size();
  if (n == 0) return 0.0f;

  // Pass 1: the key range of the samples that have a key, and how many have
  // none. Those share one explicit bin, summed first (as the lowest key).
  struct Range {
    long long lo = std::numeric_limits<long long>::max();
    long long hi = std::numeric_limits<long long>::min();
    std::uint64_t keyless = 0;
  };
  std::vector<Range> ranges(static_cast<std::size_t>(pool.slab_count(n)));
  pool.parallel_slabs(n, [&](index_t s, index_t lo, index_t hi) {
    Range r;
    for (index_t i = lo; i < hi; ++i) {
      long long k = 0;
      if (!bin_key(f[i], eb, k)) {
        ++r.keyless;
        continue;
      }
      r.lo = std::min(r.lo, k);
      r.hi = std::max(r.hi, k);
    }
    ranges[static_cast<std::size_t>(s)] = r;
  });
  Range all;
  for (const Range& r : ranges) {
    all.lo = std::min(all.lo, r.lo);
    all.hi = std::max(all.hi, r.hi);
    all.keyless += r.keyless;
  }

  const double total = static_cast<double>(n);
  double h = 0.0;
  add_bin(h, all.keyless, total);
  if (all.keyless == static_cast<std::uint64_t>(n)) return static_cast<float>(h);

  // The span in unsigned arithmetic: kmax - kmin can exceed LLONG_MAX.
  const std::uint64_t span =
      static_cast<std::uint64_t>(all.hi) - static_cast<std::uint64_t>(all.lo);
  if (span < kDenseEntropyBins) {
    // Pass 2: dense counts, one histogram per part, summed per bin in
    // ascending key order. The part count keeps every histogram together
    // under kDenseEntropyBins * 4 counters.
    const auto bins = static_cast<std::size_t>(span) + 1;
    const index_t parts = std::clamp<index_t>(
        static_cast<index_t>(4 * kDenseEntropyBins / bins), 1, pool.size());
    std::vector<std::vector<std::uint64_t>> counts(static_cast<std::size_t>(parts));
    pool.parallel_for(parts, [&](index_t p) {
      std::vector<std::uint64_t>& c = counts[static_cast<std::size_t>(p)];
      c.assign(bins, 0);
      for (index_t i = p * n / parts; i < (p + 1) * n / parts; ++i) {
        long long k = 0;
        if (bin_key(f[i], eb, k))
          ++c[static_cast<std::size_t>(static_cast<std::uint64_t>(k) -
                                       static_cast<std::uint64_t>(all.lo))];
      }
    });
    for (std::size_t b = 0; b < bins; ++b) {
      std::uint64_t c = 0;
      for (const auto& part : counts) c += part[b];
      add_bin(h, c, total);
    }
    return static_cast<float>(h);
  }

  // A key range too wide to count densely: sort the keys and count runs.
  std::vector<long long> keys;
  keys.reserve(static_cast<std::size_t>(n) - static_cast<std::size_t>(all.keyless));
  for (index_t i = 0; i < n; ++i) {
    long long k = 0;
    if (bin_key(f[i], eb, k)) keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 0; i < keys.size();) {
    std::size_t j = i;
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    add_bin(h, j - i, total);
    i = j;
  }
  return static_cast<float>(h);
}

}  // namespace detail

std::vector<tiled::Box> support_chain(const Index& idx, int level,
                                      const tiled::Box& region) {
  MRC_REQUIRE(level >= 0 && level < static_cast<int>(idx.levels.size()),
              "progressive: level out of range");
  const int top = static_cast<int>(idx.levels.size()) - 1;
  std::vector<tiled::Box> boxes(idx.levels.size());
  boxes[static_cast<std::size_t>(level)] = region;
  for (int l = level; l < top; ++l) {
    const tiled::Box& b = boxes[static_cast<std::size_t>(l)];
    const SupportBox s =
        prolong_support(idx.levels[static_cast<std::size_t>(l + 1)].dims,
                        idx.levels[static_cast<std::size_t>(l)].dims, b.lo, b.extent());
    boxes[static_cast<std::size_t>(l + 1)] = {
        s.origin,
        {s.origin.x + s.extent.nx, s.origin.y + s.extent.ny, s.origin.z + s.extent.nz}};
  }
  return boxes;
}

FieldF refine(const FieldF& coarse_window, const tiled::Box& coarse_box,
              Dim3 coarse_dims, const FieldF& residual, const tiled::Box& fine_box,
              Dim3 fine_dims) {
  MRC_REQUIRE(coarse_window.dims() == coarse_box.extent() &&
                  residual.dims() == fine_box.extent(),
              "progressive: refine window extents mismatch");
  FieldF prolonged = prolong_trilinear_region(coarse_window, coarse_box.lo, coarse_dims,
                                              fine_dims, fine_box.lo,
                                              fine_box.extent());
  add_range(prolonged, residual, 0, prolonged.size());
  return prolonged;
}

std::span<const std::byte> Index::level_stream(std::span<const std::byte> stream,
                                               std::size_t l) const {
  MRC_REQUIRE(l < levels.size(), "level_stream: level out of range");
  const LevelEntry& e = levels[l];
  return stream.subspan(payload_offset + static_cast<std::size_t>(e.offset),
                        static_cast<std::size_t>(e.length));
}

Bytes build(const FieldF& f, double abs_eb, const Config& cfg) {
  MRC_REQUIRE(!f.empty(), "progressive: empty field");
  MRC_REQUIRE(abs_eb > 0.0, "progressive: error bound must be positive");
  MRC_REQUIRE(cfg.brick >= 1, "progressive: brick edge must be >= 1");
  MRC_REQUIRE(cfg.levels >= 0 && cfg.levels <= kMaxLevels,
              "progressive: level count must be in [0, " + std::to_string(kMaxLevels) +
                  "]");
  const Dim3 d = f.dims();
  const int n_levels = cfg.levels == 0 ? auto_levels(d, cfg.brick) : cfg.levels;

  tiled::Config tc;
  tc.codec = cfg.codec;
  tc.tuning = cfg.tuning;
  tc.brick = cfg.brick;
  tc.threads = cfg.threads;
  tiled::Config tc_resid = tc;
  tc_resid.codec = cfg.resid_codec;

  exec::ThreadPool pool(cfg.threads);

  // The restrict_half chain: chain[l] holds level l >= 1, level 0 reads
  // straight from f.
  std::vector<FieldF> chain(static_cast<std::size_t>(n_levels));
  {
    OBS_SPAN("progressive.restrict");
    for (int l = 1; l < n_levels; ++l)
      chain[static_cast<std::size_t>(l)] =
          restrict_half(l == 1 ? f : chain[static_cast<std::size_t>(l - 1)], pool);
  }
  auto level_data = [&](int l) -> const FieldF& {
    return l == 0 ? f : chain[static_cast<std::size_t>(l)];
  };

  std::vector<Bytes> streams(static_cast<std::size_t>(n_levels));
  std::vector<LevelEntry> entries(static_cast<std::size_t>(n_levels));

  // Top-down with the decoder in the loop: each residual is measured against
  // the *reconstruction* the reader will actually have, so per-level decode
  // error stays at eb instead of accumulating down the chain.
  FieldF recon;
  for (int l = n_levels - 1; l >= 0; --l) {
    const FieldF& data = level_data(l);
    LevelEntry& e = entries[static_cast<std::size_t>(l)];
    e.dims = data.dims();
    {
      OBS_SPAN("progressive.level_stats");
      const auto [lo, hi] = min_max(data, pool);
      e.vmin = lo;
      e.vmax = hi;
    }
    e.cum_err = static_cast<float>(abs_eb * (n_levels - l));
    e.approx_err = static_cast<float>(
        l == 0 ? static_cast<double>(e.cum_err)
               : pyramid::prolong_error(data, f, pool) + static_cast<double>(e.cum_err));

    OBS_SPAN("progressive.level_compress");
    if (l == n_levels - 1) {
      // Coarsest level: stored verbatim; "residual" stats describe the data.
      {
        OBS_SPAN("progressive.level_stats");
        e.resid_max = std::max(std::abs(e.vmin), std::abs(e.vmax));
        e.resid_entropy = detail::bin_entropy(data, abs_eb, pool);
      }
      streams[static_cast<std::size_t>(l)] = tiled::compress(data, abs_eb, tc);
      recon = tiled::decompress(streams[static_cast<std::size_t>(l)], cfg.threads);
      continue;
    }
    FieldF prolonged;
    {
      OBS_SPAN("progressive.prolong");
      prolonged = prolong_trilinear(recon, data.dims(), pool);
    }
    // The finest level needs no reconstruction, so its residual overwrites
    // the prolonged field instead of taking a second full-size buffer.
    FieldF resid_buf = l == 0 ? FieldF{} : FieldF(data.dims());
    FieldF& resid = l == 0 ? prolonged : resid_buf;
    {
      OBS_SPAN("progressive.residual");
      e.resid_max = residual_into(data, prolonged, resid, pool);
    }
    {
      OBS_SPAN("progressive.level_stats");
      e.resid_entropy = detail::bin_entropy(resid, abs_eb, pool);
    }
    streams[static_cast<std::size_t>(l)] = tiled::compress(resid, abs_eb, tc_resid);
    if (l > 0) {
      const FieldF decoded =
          tiled::decompress(streams[static_cast<std::size_t>(l)], cfg.threads);
      OBS_SPAN("progressive.recon");
      add_into(prolonged, decoded, pool);
      recon = std::move(prolonged);
    }
  }

  std::uint64_t payload_bytes = 0;
  for (int l = 0; l < n_levels; ++l) {
    auto& e = entries[static_cast<std::size_t>(l)];
    e.offset = payload_bytes;
    e.length = streams[static_cast<std::size_t>(l)].size();
    payload_bytes += e.length;
  }

  Bytes out;
  ByteWriter w(out);
  mrc::detail::write_header(w, kProgressiveMagic, d, abs_eb);
  w.put_varint(static_cast<std::uint64_t>(n_levels));
  w.put_varint(payload_bytes);
  for (const LevelEntry& e : entries) {
    w.put_varint(e.offset);
    w.put_varint(e.length);
    w.put_varint(static_cast<std::uint64_t>(e.dims.nx));
    w.put_varint(static_cast<std::uint64_t>(e.dims.ny));
    w.put_varint(static_cast<std::uint64_t>(e.dims.nz));
    w.put(e.vmin);
    w.put(e.vmax);
    w.put(e.resid_max);
    w.put(e.resid_entropy);
    w.put(e.cum_err);
    w.put(e.approx_err);
  }
  for (const Bytes& s : streams) w.put_bytes(s);
  return out;
}

Index read_geometry(std::span<const std::byte> stream) {
  ByteReader r(stream);
  const auto header = mrc::detail::read_header(r, kProgressiveMagic, "progressive");

  Index idx;
  idx.dims = header.dims;
  idx.eb = header.eb;
  const std::uint64_t n_levels = r.get_varint();
  // A hostile stream can claim any level count; the cap plus the
  // records-must-fit check bound every allocation before it is sized.
  if (n_levels < 1 || n_levels > static_cast<std::uint64_t>(kMaxLevels))
    throw CodecError("progressive: bad level count");
  idx.payload_bytes = r.get_varint();
  if (n_levels > r.remaining() / kMinLevelRecord)
    throw CodecError("progressive: level count exceeds stream size");

  idx.levels.resize(static_cast<std::size_t>(n_levels));
  Dim3 expect = idx.dims;
  std::uint64_t next_offset = 0;
  for (std::size_t l = 0; l < idx.levels.size(); ++l) {
    LevelEntry& e = idx.levels[l];
    e.offset = r.get_varint();
    e.length = r.get_varint();
    e.dims.nx = static_cast<index_t>(r.get_varint());
    e.dims.ny = static_cast<index_t>(r.get_varint());
    e.dims.nz = static_cast<index_t>(r.get_varint());
    e.vmin = r.get<float>();
    e.vmax = r.get<float>();
    e.resid_max = r.get<float>();
    e.resid_entropy = r.get<float>();
    e.cum_err = r.get<float>();
    e.approx_err = r.get<float>();

    // Levels are pinned to the halving chain and must tile the payload
    // exactly — anything else (overlapping records, gaps, extents that are
    // not the parent's half) means a corrupt or hostile table.
    if (e.dims != expect)
      throw CodecError("progressive: level " + std::to_string(l) + " extents " +
                       e.dims.str() + " off the halving chain (want " + expect.str() +
                       ")");
    if (e.offset != next_offset || e.length == 0 ||
        e.length > idx.payload_bytes - e.offset)
      throw CodecError("progressive: level " + std::to_string(l) +
                       " offset/length out of range");
    next_offset = e.offset + e.length;
    expect = blocks_for(expect, 2);
  }
  if (next_offset != idx.payload_bytes)
    throw CodecError("progressive: level streams do not tile the payload");

  idx.payload_offset = r.position();
  if (r.remaining() < idx.payload_bytes)
    throw CodecError("progressive: payload truncated");

  // Level 0's tiled preamble (O(1) peek) supplies the residual codec + brick
  // edge and cross-checks the finest extents and error bound; the coarsest
  // level's preamble supplies the data codec (residuals and data carry
  // different statistics and may use different codecs).
  const tiled::Index fine = tiled::read_geometry(idx.level_stream(stream, 0));
  if (fine.dims != idx.dims)
    throw CodecError(
        "progressive: level 0 stream extents disagree with the level table");
  if (fine.eb != idx.eb)
    throw CodecError(
        "progressive: level 0 stream error bound disagrees with the header");
  idx.codec = fine.codec;
  idx.codec_magic = fine.codec_magic;
  idx.brick = fine.brick;
  if (idx.levels.size() == 1) {
    idx.data_codec = fine.codec;
    idx.data_codec_magic = fine.codec_magic;
  } else {
    const tiled::Index coarse =
        tiled::read_geometry(idx.level_stream(stream, idx.levels.size() - 1));
    if (coarse.dims != idx.levels.back().dims)
      throw CodecError(
          "progressive: coarsest stream extents disagree with the level table");
    if (coarse.eb != idx.eb)
      throw CodecError(
          "progressive: coarsest stream error bound disagrees with the header");
    idx.data_codec = coarse.codec;
    idx.data_codec_magic = coarse.codec_magic;
  }
  return idx;
}

Index read_index(std::span<const std::byte> stream) {
  Index idx = read_geometry(stream);
  // Every nested stream must be a tiled stream of exactly the level table's
  // extents, the section's codec (residual levels share one, the coarsest
  // data level its own), same bound — a mismatch means the table points at
  // the wrong bytes.
  for (std::size_t l = 1; l < idx.levels.size(); ++l) {
    const tiled::Index li = tiled::read_geometry(idx.level_stream(stream, l));
    const std::uint32_t want =
        l == idx.levels.size() - 1 ? idx.data_codec_magic : idx.codec_magic;
    if (li.dims != idx.levels[l].dims)
      throw CodecError("progressive: level " + std::to_string(l) +
                       " stream extents disagree with the level table");
    if (li.codec_magic != want)
      throw CodecError("progressive: level " + std::to_string(l) + " codec mismatch");
    if (li.eb != idx.eb)
      throw CodecError("progressive: level " + std::to_string(l) +
                       " error bound mismatch");
  }
  return idx;
}

FieldF decompress_level(std::span<const std::byte> stream, int level, int threads) {
  const Index idx = read_index(stream);
  MRC_REQUIRE(level >= 0 && level < static_cast<int>(idx.levels.size()),
              "progressive: level out of range");
  const int top = static_cast<int>(idx.levels.size()) - 1;
  OBS_SPAN("progressive.level_decode");
  exec::ThreadPool pool(threads);
  FieldF recon =
      tiled::decompress(idx.level_stream(stream, static_cast<std::size_t>(top)),
                        threads);
  for (int l = top - 1; l >= level; --l) {
    const FieldF resid =
        tiled::decompress(idx.level_stream(stream, static_cast<std::size_t>(l)), threads);
    OBS_SPAN("progressive.recon");
    FieldF prolonged =
        prolong_trilinear(recon, idx.levels[static_cast<std::size_t>(l)].dims, pool);
    add_into(prolonged, resid, pool);
    recon = std::move(prolonged);
  }
  return recon;
}

FieldF read_region(std::span<const std::byte> stream, int level,
                   const tiled::Box& region, int threads) {
  const Index idx = read_index(stream);
  MRC_REQUIRE(level >= 0 && level < static_cast<int>(idx.levels.size()),
              "progressive: level out of range");
  const int top = static_cast<int>(idx.levels.size()) - 1;
  const auto boxes = support_chain(idx, level, region);
  OBS_SPAN("progressive.level_decode");
  FieldF window =
      tiled::read_region(idx.level_stream(stream, static_cast<std::size_t>(top)),
                         boxes[static_cast<std::size_t>(top)], threads)
          .data;
  for (int l = top - 1; l >= level; --l) {
    const tiled::Box& fine_box = boxes[static_cast<std::size_t>(l)];
    const FieldF resid =
        tiled::read_region(idx.level_stream(stream, static_cast<std::size_t>(l)),
                           fine_box, threads)
            .data;
    window = refine(window, boxes[static_cast<std::size_t>(l + 1)],
                    idx.levels[static_cast<std::size_t>(l + 1)].dims, resid, fine_box,
                    idx.levels[static_cast<std::size_t>(l)].dims);
  }
  return window;
}

}  // namespace mrc::progressive

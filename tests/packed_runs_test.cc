// Tests for the delta-varint packed-run encoding (util/packed_runs.h), the
// packed FlatSets mode (util/flat_sets.h), and the bump arena
// (util/arena.h): encode/decode round trips, validation rejections, and
// byte-identical cover-engine selections across encodings.

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "infmax/cover_engine.h"
#include "util/arena.h"
#include "util/flat_sets.h"
#include "util/packed_runs.h"
#include "util/rng.h"

namespace soi {
namespace {

std::vector<uint32_t> Decode(std::span<const uint8_t> bytes, uint64_t count) {
  PackedRunCursor cur(bytes.data(), count);
  std::vector<uint32_t> out;
  cur.AppendTo(&out);
  return out;
}

TEST(PackedRunTest, RoundTripsRepresentativeRuns) {
  const std::vector<std::vector<uint32_t>> runs = {
      {},
      {0},
      {0xFFFFFFFFu},
      {0, 1, 2, 3, 4, 5},                      // dense: 1 byte/element
      {0, 127, 128, 16383, 16384, 0xFFFFFFFFu},  // varint length boundaries
      {7, 1000, 1000000, 1000000000},
  };
  for (const auto& run : runs) {
    std::vector<uint8_t> bytes;
    AppendPackedRun(run, &bytes);
    EXPECT_EQ(Decode(bytes, run.size()), run);
    EXPECT_TRUE(ValidatePackedRun(bytes, run.size(), uint64_t{1} << 32));
  }
}

TEST(PackedRunTest, DenseRunsPackToOneBytePerElement) {
  std::vector<uint32_t> run(1000);
  for (uint32_t i = 0; i < 1000; ++i) run[i] = 5 + i;
  std::vector<uint8_t> bytes;
  AppendPackedRun(run, &bytes);
  EXPECT_EQ(bytes.size(), run.size());  // gaps of 1 => delta 0 => 1 byte
}

TEST(PackedRunTest, RandomRunsRoundTrip) {
  std::mt19937 gen(42);
  for (int trial = 0; trial < 50; ++trial) {
    std::uniform_int_distribution<uint32_t> gap(1, 1u << (trial % 20 + 1));
    std::vector<uint32_t> run;
    uint64_t v = gap(gen) - 1;
    while (run.size() < 200 && v <= 0xFFFFFFFFu) {
      run.push_back(static_cast<uint32_t>(v));
      v += gap(gen);
    }
    std::vector<uint8_t> bytes;
    AppendPackedRun(run, &bytes);
    EXPECT_EQ(Decode(bytes, run.size()), run);
    EXPECT_TRUE(ValidatePackedRun(bytes, run.size(), uint64_t{1} << 32));
  }
}

TEST(PackedRunTest, ValidateRejectsMalformedBytes) {
  std::vector<uint8_t> bytes;
  AppendPackedRun(std::vector<uint32_t>{3, 10, 20}, &bytes);
  // Wrong element count: too few / too many for the byte extent.
  EXPECT_FALSE(ValidatePackedRun(bytes, 2, 1u << 20));
  EXPECT_FALSE(ValidatePackedRun(bytes, 4, 1u << 20));
  // Truncated extent.
  EXPECT_FALSE(ValidatePackedRun(
      std::span<const uint8_t>(bytes.data(), bytes.size() - 1), 3, 1u << 20));
  // Value out of id_bound (21 held, bound 21 is exclusive-safe at 22).
  EXPECT_FALSE(ValidatePackedRun(bytes, 3, 20));
  EXPECT_TRUE(ValidatePackedRun(bytes, 3, 21));
  // Overlong varint: 6 continuation bytes exceed the uint32 width.
  const std::vector<uint8_t> overlong = {0x80, 0x80, 0x80, 0x80, 0x80, 0x01};
  EXPECT_FALSE(ValidatePackedRun(overlong, 1, 1u << 20));
  // Delta pushing past UINT32_MAX: varint(0xFFFFFFFF), then varint(0),
  // so the next value would be 2^32.
  const std::vector<uint8_t> wrap = {0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0x00};
  EXPECT_FALSE(ValidatePackedRun(wrap, 2, uint64_t{1} << 33));
  // Empty run: valid at count 0.
  EXPECT_TRUE(ValidatePackedRun({}, 0, 1));
  EXPECT_FALSE(ValidatePackedRun({}, 1, 1));
}

// Back-to-back runs, as the snapshot writer packs a world's closure: the
// exact size, the bytes (each run as AppendPackedRun writes it), not one
// byte written past the end, and DecodePackedRuns reading them back. The
// runs mix empty runs, runs of one value and every varint length.
TEST(PackedRunsTest, EncodesBackToBackRunsIntoExactBuffers) {
  std::mt19937 gen(7);
  std::vector<uint32_t> values;
  std::vector<uint64_t> offsets = {0};
  std::vector<uint8_t> expected;
  for (int r = 0; r < 300; ++r) {
    std::vector<uint32_t> run;
    const uint32_t len = r % 7 == 0 ? 0 : gen() % 40 + 1;
    std::uniform_int_distribution<uint32_t> gap(1, 1u << (r % 30 + 1));
    uint64_t v = gap(gen) - 1;
    while (run.size() < len && v <= 0xFFFFFFFFu) {
      run.push_back(static_cast<uint32_t>(v));
      v += gap(gen);
    }
    AppendPackedRun(run, &expected);
    values.insert(values.end(), run.begin(), run.end());
    offsets.push_back(values.size());
  }
  const uint64_t size = PackedRunsSize(values, offsets);
  ASSERT_EQ(size, expected.size());
  constexpr uint8_t kGuard = 0xA5;
  std::vector<uint8_t> buffer(size + 8, kGuard);
  const uint8_t* end = EncodePackedRuns(values, offsets, buffer.data());
  ASSERT_EQ(end, buffer.data() + size);
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), buffer.begin()));
  for (size_t i = size; i < buffer.size(); ++i) {
    EXPECT_EQ(buffer[i], kGuard) << "wrote past the end at " << i;
  }
  std::vector<uint32_t> decoded(values.size());
  uint64_t consumed = 0;
  ASSERT_TRUE(DecodePackedRuns(expected, offsets, uint64_t{1} << 32,
                               decoded.data(), &consumed));
  EXPECT_EQ(consumed, size);
  EXPECT_EQ(decoded, values);
  // Nothing at all: zero bytes, and nothing written.
  const std::vector<uint64_t> none = {0, 0, 0};
  EXPECT_EQ(PackedRunsSize({}, none), 0u);
  EXPECT_EQ(EncodePackedRuns({}, none, buffer.data()), buffer.data());
}

TEST(PackedRunsTest, ArenaAddAppendAndBorrow) {
  PackedRuns a;
  a.AddRun(std::vector<uint32_t>{1, 2, 3});
  a.AddRun({});
  a.AddRun(std::vector<uint32_t>{10, 100});
  PackedRuns b;
  b.AddRun(std::vector<uint32_t>{0, 7});
  a.Append(b);
  ASSERT_EQ(a.num_runs(), 4u);
  EXPECT_EQ(a.total_elements(), 7u);
  EXPECT_EQ(a.RunLength(1), 0u);
  std::vector<uint32_t> out;
  a.AppendRun(3, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 7}));
  out.clear();
  a.AppendRun(0, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{1, 2, 3}));

  const PackedRuns borrowed =
      PackedRuns::Borrowed(a.bytes(), a.byte_offsets(), a.elem_offsets());
  EXPECT_TRUE(borrowed.borrowed());
  ASSERT_EQ(borrowed.num_runs(), 4u);
  out.clear();
  borrowed.AppendRun(2, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{10, 100}));
}

FlatSets MakeSampleSets() {
  FlatSets raw;
  raw.AddSet(std::vector<uint32_t>{0, 2, 5, 6});
  raw.AddSet({});
  raw.AddSet(std::vector<uint32_t>{1, 2, 3, 4, 5, 6, 7});
  raw.AddSet(std::vector<uint32_t>{7});
  return raw;
}

TEST(FlatSetsPackedTest, PackUnpackRoundTrip) {
  const FlatSets raw = MakeSampleSets();
  const FlatSets packed = FlatSets::Pack(raw);
  EXPECT_TRUE(packed.packed());
  EXPECT_EQ(packed.num_sets(), raw.num_sets());
  EXPECT_EQ(packed.total_elements(), raw.total_elements());
  for (size_t i = 0; i < raw.num_sets(); ++i) {
    EXPECT_EQ(packed.SetSize(i), raw.SetSize(i));
    std::vector<uint32_t> via_cursor;
    packed.AppendSetTo(i, &via_cursor);
    EXPECT_EQ(via_cursor, std::vector<uint32_t>(raw.Set(i).begin(),
                                                raw.Set(i).end()));
    std::vector<uint32_t> via_foreach;
    packed.ForEach(i, [&](uint32_t e) { via_foreach.push_back(e); });
    EXPECT_EQ(via_foreach, via_cursor);
  }
  // Logical equality across encodings, both directions.
  EXPECT_EQ(packed, raw);
  EXPECT_EQ(raw, packed);
  const FlatSets unpacked = FlatSets::Unpack(packed);
  EXPECT_FALSE(unpacked.packed());
  EXPECT_EQ(unpacked, raw);
  // Pack(packed) splices without re-encoding.
  EXPECT_EQ(FlatSets::Pack(packed), packed);
}

TEST(FlatSetsPackedTest, AddSetAndAppendAcrossModes) {
  const FlatSets raw = MakeSampleSets();
  FlatSets packed = FlatSets::Pack(raw);
  packed.AddSet(std::vector<uint32_t>{3, 9});  // direct packed append
  ASSERT_EQ(packed.num_sets(), 5u);
  std::vector<uint32_t> out;
  packed.AppendSetTo(4, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{3, 9}));

  // packed += raw, packed += packed, raw += packed all agree with raw += raw.
  FlatSets expect = MakeSampleSets();
  expect.Append(raw);
  expect.Append(raw);
  FlatSets p2 = FlatSets::Pack(MakeSampleSets());
  p2.Append(raw);
  p2.Append(FlatSets::Pack(raw));
  EXPECT_EQ(p2, expect);
  FlatSets r2 = MakeSampleSets();
  r2.Append(FlatSets::Pack(raw));
  r2.Append(raw);
  EXPECT_EQ(r2, expect);

  p2.Clear();
  EXPECT_TRUE(p2.packed());
  EXPECT_EQ(p2.num_sets(), 0u);
}

TEST(FlatSetsPackedTest, TransposeMatchesRawTranspose) {
  const FlatSets raw = MakeSampleSets();
  const FlatSets packed = FlatSets::Pack(raw);
  EXPECT_EQ(packed.Transpose(8), raw.Transpose(8));
  EXPECT_FALSE(packed.Transpose(8).packed());
}

TEST(FlatSetsPackedTest, BorrowedPackedReadsTheSameSets) {
  const FlatSets raw = MakeSampleSets();
  const FlatSets packed = FlatSets::Pack(raw);
  const PackedRuns& runs = packed.packed_runs();
  const FlatSets view = FlatSets::BorrowedPacked(
      runs.bytes(), runs.byte_offsets(), runs.elem_offsets());
  EXPECT_TRUE(view.packed());
  EXPECT_TRUE(view.borrowed());
  EXPECT_EQ(view, raw);
  EXPECT_EQ(view, packed);
}

TEST(FlatSetsPackedTest, DenseSetsCompressAboutFourfold) {
  FlatSets raw;
  std::vector<uint32_t> run(4096);
  for (uint32_t i = 0; i < 4096; ++i) run[i] = 100 + i;
  for (int s = 0; s < 8; ++s) raw.AddSet(run);
  const FlatSets packed = FlatSets::Pack(raw);
  // Raw: 4 bytes/element. Packed: ~1 byte/element + offset overhead.
  EXPECT_LT(packed.ApproxBytes() * 3, raw.ApproxBytes());
}

TEST(FlatSetsPackedTest, InequalityAcrossEncodings) {
  FlatSets a, b;
  a.AddSet(std::vector<uint32_t>{1, 5});
  b.AddSet(std::vector<uint32_t>{1, 6});
  EXPECT_FALSE(FlatSets::Pack(a) == b);
  EXPECT_FALSE(a == FlatSets::Pack(b));
  FlatSets c;
  c.AddSet(std::vector<uint32_t>{1, 5, 6});
  EXPECT_FALSE(FlatSets::Pack(a) == c);  // differing offsets short-circuit
}

// The cover engine must make byte-identical selections whatever the
// encoding of its forward arena.
TEST(FlatSetsPackedTest, CoverEngineSelectionsMatchAcrossEncodings) {
  Rng rng(7);
  FlatSets raw;
  std::vector<uint32_t> scratch;
  constexpr uint32_t kUniverse = 256;
  for (int s = 0; s < 300; ++s) {
    scratch.clear();
    uint32_t v = static_cast<uint32_t>(rng.NextBounded(8));
    while (v < kUniverse) {
      scratch.push_back(v);
      v += 1 + static_cast<uint32_t>(rng.NextBounded(24));
    }
    raw.AddSet(scratch);
  }
  const FlatSets packed = FlatSets::Pack(raw);

  const CoverEngine raw_engine(&raw, kUniverse);
  const CoverEngine packed_engine(&packed, kUniverse);
  const GreedyResult a = raw_engine.Select(20, /*track_saturation=*/true);
  const GreedyResult b = packed_engine.Select(20, /*track_saturation=*/true);
  ASSERT_EQ(a.seeds, b.seeds);
  for (size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].marginal_gain, b.steps[i].marginal_gain);
    EXPECT_EQ(a.steps[i].objective_after, b.steps[i].objective_after);
    EXPECT_EQ(a.steps[i].mg_ratio_10_1, b.steps[i].mg_ratio_10_1);
  }

  std::vector<double> values(kUniverse);
  for (uint32_t e = 0; e < kUniverse; ++e) {
    values[e] = 0.25 + static_cast<double>(e % 7);
  }
  const GreedyResult wa = SelectWeightedCover(raw, values, 12);
  const GreedyResult wb = SelectWeightedCover(packed, values, 12);
  EXPECT_EQ(wa.seeds, wb.seeds);
  for (size_t i = 0; i < wa.steps.size(); ++i) {
    EXPECT_EQ(wa.steps[i].marginal_gain, wb.steps[i].marginal_gain);
  }

  std::vector<double> costs(raw.num_sets());
  for (size_t v = 0; v < costs.size(); ++v) {
    costs[v] = 1.0 + static_cast<double>(v % 5);
  }
  const BudgetedSelection ba =
      SelectBudgetedCover(raw, values, costs, /*budget=*/25.0, true);
  const BudgetedSelection bb =
      SelectBudgetedCover(packed, values, costs, /*budget=*/25.0, true);
  EXPECT_EQ(ba.seeds, bb.seeds);
  EXPECT_EQ(ba.covered_value, bb.covered_value);
  EXPECT_EQ(ba.total_cost, bb.total_cost);
}

TEST(BumpArenaTest, AllocatesAlignedAndResets) {
  BumpArena arena(/*chunk_bytes=*/1024);
  std::span<uint32_t> a = arena.AllocateArray<uint32_t>(100);
  for (uint32_t i = 0; i < 100; ++i) a[i] = i;
  std::span<uint64_t> b = arena.AllocateArray<uint64_t>(10);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b.data()) % alignof(uint64_t), 0u);
  for (uint64_t i = 0; i < 10; ++i) b[i] = i;
  for (uint32_t i = 0; i < 100; ++i) EXPECT_EQ(a[i], i);

  // Oversized request spills into a dedicated chunk.
  uint8_t* big = static_cast<uint8_t*>(arena.Allocate(1 << 16, 8));
  big[0] = 1;
  big[(1 << 16) - 1] = 2;

  const uint64_t retained = arena.retained_bytes();
  EXPECT_GE(retained, uint64_t{1} << 16);
  arena.Reset();
  EXPECT_EQ(arena.retained_bytes(), retained);  // chunks are recycled
  std::span<uint32_t> c = arena.AllocateArray<uint32_t>(64);
  for (uint32_t i = 0; i < 64; ++i) c[i] = ~i;
}

}  // namespace
}  // namespace soi

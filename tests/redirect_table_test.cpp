#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "suv/redirect_table.hpp"

namespace suvtm::suv {
namespace {

sim::SuvParams small_params() {
  sim::SuvParams p;
  p.l1_table_entries = 4;  // tiny: overflow paths are easy to reach
  p.l2_table_entries = 16;
  p.l2_table_assoc = 2;
  return p;
}

RedirectEntry txn_entry(LineAddr orig, LineAddr target, CoreId owner) {
  return {orig, target, EntryState::kTxnRedirect, owner};
}

TEST(RedirectTableTest, EmptyLookupIsFilteredFree) {
  RedirectTable t(sim::SuvParams{}, 4);
  auto res = t.lookup(0, 123);
  EXPECT_EQ(res.entry, nullptr);
  EXPECT_EQ(res.probe, 0u);
  EXPECT_EQ(res.squash, 0u);
  EXPECT_EQ(t.stats().summary_filtered, 1u);
}

TEST(RedirectTableTest, OwnerLookupHitsPinnedFirstLevel) {
  RedirectTable t(sim::SuvParams{}, 4);
  t.insert_transient(txn_entry(10, 1000, 0));
  auto res = t.lookup(0, 10);
  ASSERT_NE(res.entry, nullptr);
  EXPECT_EQ(res.probe, 0u);  // zero-latency fully-associative table
  EXPECT_EQ(res.entry->target, 1000u);
  EXPECT_EQ(t.stats().l1_hits, 1u);
  EXPECT_EQ(t.pinned_count(0), 1u);
}

TEST(RedirectTableTest, TransientEntryInvisibleToOtherCoresSummaries) {
  RedirectTable t(sim::SuvParams{}, 4);
  t.insert_transient(txn_entry(10, 1000, 0));
  // Other cores' summaries haven't been told: filtered without cost.
  auto res = t.lookup(1, 10);
  EXPECT_EQ(res.entry, nullptr);
}

TEST(RedirectTableTest, CommitPublishesToAllCores) {
  RedirectTable t(sim::SuvParams{}, 4);
  t.insert_transient(txn_entry(10, 1000, 0));
  auto out = t.commit_entry(10);
  EXPECT_FALSE(out.deleted);
  EXPECT_EQ(out.target, 1000u);
  EXPECT_EQ(t.find(10)->state, EntryState::kGlobalRedirect);
  EXPECT_EQ(t.pinned_count(0), 0u);  // unpinned after commit
  // Every core's lookup now resolves (via L1/L2 tables).
  for (CoreId c = 0; c < 4; ++c) {
    auto res = t.lookup(c, 10);
    ASSERT_NE(res.entry, nullptr) << "core " << c;
    EXPECT_EQ(res.entry->resolve_for(c), 1000u);
  }
}

TEST(RedirectTableTest, PublishedEntryReachableThroughSecondLevel) {
  RedirectTable t(small_params(), 4);
  t.insert_transient(txn_entry(10, 1000, 0));
  t.commit_entry(10);
  // A core that never saw the entry pays the second-level probe once,
  // then hits its first level.
  auto first = t.lookup(2, 10);
  ASSERT_NE(first.entry, nullptr);
  EXPECT_EQ(first.probe, small_params().l2_table_latency);
  auto second = t.lookup(2, 10);
  EXPECT_EQ(second.probe, 0u);
}

TEST(RedirectTableTest, AbortRemovesFreshEntry) {
  RedirectTable t(sim::SuvParams{}, 4);
  t.insert_transient(txn_entry(10, 1000, 0));
  auto out = t.abort_entry(10);
  EXPECT_TRUE(out.deleted);
  EXPECT_EQ(out.target, 1000u);
  EXPECT_EQ(t.find(10), nullptr);
  EXPECT_EQ(t.total_entries(), 0u);
  // Owner's summary no longer reports it.
  auto res = t.lookup(0, 10);
  EXPECT_EQ(res.entry, nullptr);
}

TEST(RedirectTableTest, ToggleCommitDeletesEntryEverywhere) {
  RedirectTable t(sim::SuvParams{}, 4);
  t.insert_transient(txn_entry(10, 1000, 0));
  t.commit_entry(10);  // now global
  // Another transaction toggles it back (g1v1 -> g1v0).
  RedirectEntry* e = t.find(10);
  e->state = EntryState::kTxnUnredirect;
  e->owner = 2;
  t.pin_transient(2, 10);
  auto out = t.commit_entry(10);
  EXPECT_TRUE(out.deleted);
  EXPECT_EQ(t.find(10), nullptr);
  for (CoreId c = 0; c < 4; ++c) {
    EXPECT_EQ(t.lookup(c, 10).entry, nullptr) << "core " << c;
  }
}

TEST(RedirectTableTest, ToggleAbortRestoresGlobalRedirect) {
  RedirectTable t(sim::SuvParams{}, 4);
  t.insert_transient(txn_entry(10, 1000, 0));
  t.commit_entry(10);
  RedirectEntry* e = t.find(10);
  e->state = EntryState::kTxnUnredirect;
  e->owner = 2;
  t.pin_transient(2, 10);
  auto out = t.abort_entry(10);
  EXPECT_FALSE(out.deleted);
  ASSERT_NE(t.find(10), nullptr);
  EXPECT_EQ(t.find(10)->state, EntryState::kGlobalRedirect);
  EXPECT_EQ(t.find(10)->resolve_for(5), 1000u);
}

TEST(RedirectTableTest, PinnedOverflowSpillsToSecondLevel) {
  RedirectTable t(small_params(), 4);  // 4 pinnable entries
  for (LineAddr l = 0; l < 4; ++l) {
    EXPECT_EQ(t.insert_transient(txn_entry(l, 1000 + l, 0)), 0u);
  }
  // Fifth transient entry cannot be pinned: charged second-level latency.
  EXPECT_EQ(t.insert_transient(txn_entry(4, 1004, 0)),
            small_params().l2_table_latency);
  EXPECT_EQ(t.stats().l1_overflow_entries, 1u);
  EXPECT_EQ(t.pinned_count(0), 4u);
  // The spilled entry is still findable by its owner.
  auto res = t.lookup(0, 4);
  ASSERT_NE(res.entry, nullptr);
}

TEST(RedirectTableTest, MisspeculationWhenBothLevelsMiss) {
  sim::SuvParams p = small_params();
  RedirectTable t(p, 4);
  t.insert_transient(txn_entry(10, 1000, 0));
  t.commit_entry(10);
  // Evict the entry from the second level by flooding its set, and from
  // core 1's first level (which never held it). A lookup from core 1 then
  // finds it only in the memory table: squash.
  for (LineAddr l = 0; l < 64; ++l) {
    t.insert_transient(txn_entry(100 + l, 2000 + l, 2));
    t.commit_entry(100 + l);
  }
  std::uint64_t before = t.stats().misspeculations;
  // Touch from a fresh core until we find the line whose L2 slot was lost.
  t.lookup(1, 10);
  t.lookup(1, 10);
  EXPECT_GE(t.stats().misspeculations + t.stats().l2_hits +
                t.stats().l1_hits, before);
  EXPECT_EQ(t.stats().mem_hits, t.stats().misspeculations);
}

TEST(RedirectTableTest, StatsL1MissRate) {
  TableStats s;
  EXPECT_EQ(s.l1_miss_rate(), 0.0);
  s.l1_hits = 3;
  s.l1_misses = 1;
  EXPECT_DOUBLE_EQ(s.l1_miss_rate(), 0.25);
}

TEST(RedirectTableTest, FalseFilterHitCostsNothing) {
  RedirectTable t(sim::SuvParams{}, 2);
  // Make core 0's summary contain a line, then delete the entry from the
  // summary's perspective only partially by adding/aborting churn to create
  // stale bits... simplest: force a false positive by inserting a line and
  // probing a *different* line that aliases. We approximate by checking the
  // documented contract instead: a summary hit with no entry anywhere is
  // counted and costs zero cycles (speculation hides it).
  t.insert_transient(txn_entry(42, 1042, 0));
  t.abort_entry(42);  // summary bits may remain only if shared; either way:
  const auto before_cost = t.stats().false_filter_hits;
  for (LineAddr l = 0; l < 50000; ++l) {
    auto res = t.lookup(0, l);
    if (res.entry == nullptr) {
      EXPECT_EQ(res.squash, 0u);
      EXPECT_EQ(res.probe, 0u);
    }
  }
  (void)before_cost;
}

TEST(RedirectTableTest, LookupCountsAreConsistent) {
  RedirectTable t(sim::SuvParams{}, 2);
  t.insert_transient(txn_entry(1, 101, 0));
  t.commit_entry(1);
  for (int i = 0; i < 10; ++i) t.lookup(0, 1);
  for (int i = 0; i < 10; ++i) t.lookup(0, 999);
  const auto& s = t.stats();
  EXPECT_EQ(s.lookups,
            s.summary_filtered + s.l1_hits + s.l1_misses);
  EXPECT_EQ(s.l1_misses, s.l2_hits + s.mem_hits + s.false_filter_hits);
}

bool same_entry(const RedirectEntry* a, const RedirectEntry* b) {
  if (a == nullptr || b == nullptr) return a == b;
  return a->original == b->original && a->target == b->target &&
         a->state == b->state && a->owner == b->owner;
}

/// Bit c set iff core c's first-level table holds `l`, pinned or cached.
std::uint64_t held_by(const RedirectTable& t, std::uint32_t cores, LineAddr l) {
  std::uint64_t m = 0;
  for (CoreId c = 0; c < cores; ++c) {
    if (t.pinned(c).contains(l) || t.l1_cached(c).contains(l)) m |= 1ull << c;
  }
  return m;
}

// A shard's table keeps one summary per local core plus one summary shared
// by every other core, and a deletion clears only the first-level tables
// its holder mask names. Driven through the same random sequence as a
// table whose 64 cores are all local, it must look the same from every
// core after every step.
TEST(RedirectTableTest, ObserverSummaryAndHolderMaskAreExact) {
  constexpr std::uint32_t kCores = 64;
  constexpr LineAddr kLines = 64;
  sim::SuvParams p = small_params();
  p.summary_signature_bits = 64;  // dense filters: shared and stale bits
  RedirectTable shard(p, kCores, CoreRange{16, 16});
  RedirectTable ref(p, kCores);
  Rng rng(2012);
  LineAddr next_target = 1ull << 34;
  std::vector<LineAddr> transient;
  std::vector<LineAddr> global;
  const auto take = [&](std::vector<LineAddr>& v) {
    const std::size_t i = rng.below(v.size());
    const LineAddr l = v[i];
    v[i] = v.back();
    v.pop_back();
    return l;
  };
  // Owners crowd onto two local cores so their pinned slots run out.
  const auto local_core = [&] {
    return static_cast<CoreId>(16 + rng.below(rng.chance(0.75) ? 2 : 16));
  };

  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t op = rng.below(8);
    if (op < 2) {
      const LineAddr l = rng.below(kLines);
      if (ref.find(l) == nullptr) {
        const RedirectEntry e = txn_entry(l, next_target++, local_core());
        EXPECT_EQ(shard.insert_transient(e), ref.insert_transient(e));
        transient.push_back(l);
      }
    } else if (op == 2 && !global.empty()) {
      // Toggle a global entry back to its original (SuvVm::on_tx_store).
      const LineAddr l = take(global);
      const CoreId owner = local_core();
      for (RedirectTable* t : {&shard, &ref}) {
        RedirectEntry* e = t->find(l);
        e->state = EntryState::kTxnUnredirect;
        e->owner = owner;
      }
      EXPECT_EQ(shard.pin_transient(owner, l), ref.pin_transient(owner, l));
      transient.push_back(l);
    } else if (op < 5 && !transient.empty()) {
      const LineAddr l = take(transient);
      const bool commit = op == 3;
      const auto a = commit ? shard.commit_entry(l) : shard.abort_entry(l);
      const auto b = commit ? ref.commit_entry(l) : ref.abort_entry(l);
      EXPECT_EQ(a.deleted, b.deleted);
      EXPECT_EQ(a.target, b.target);
      if (!b.deleted) global.push_back(l);
    }
    // Every core looks one line up, in both tables.
    const LineAddr probe = rng.below(kLines);
    for (CoreId c = 0; c < kCores; ++c) {
      const auto a = shard.lookup(c, probe);
      const auto b = ref.lookup(c, probe);
      ASSERT_TRUE(same_entry(a.entry, b.entry)) << "step " << step;
      ASSERT_EQ(a.probe, b.probe) << "step " << step;
      ASSERT_EQ(a.squash, b.squash) << "step " << step;
    }
    ASSERT_EQ(shard.stats(), ref.stats()) << "step " << step;
    for (LineAddr l = 0; l < kLines; ++l) {
      for (CoreId c = 0; c < kCores; ++c) {
        ASSERT_EQ(shard.summary(c).test(l), ref.summary(c).test(l))
            << "step " << step << " core " << c << " line " << l;
      }
      ASSERT_EQ(shard.holders(l), held_by(shard, kCores, l)) << "step " << step;
      ASSERT_EQ(ref.holders(l), held_by(ref, kCores, l)) << "step " << step;
    }
  }
  // The sequence reached every path the two tables could disagree on.
  const TableStats& s = ref.stats();
  EXPECT_GT(s.l1_overflow_entries, 0u);
  EXPECT_GT(s.l2_evictions, 0u);
  EXPECT_GT(s.mem_hits, 0u);
  EXPECT_GT(s.false_filter_hits, 0u);
}

}  // namespace
}  // namespace suvtm::suv

// Shared helpers for the streaming serving test suites
// (streaming_server_test.cc, streaming_stress_test.cc): the
// deterministic clustered workload, the "never drain" parameter recipe
// that makes streamed == one-shot an exact claim, a closed submission
// queue preloaded with a dataset, and a thread-safe completion
// collector.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "core/streaming_server.h"
#include "data/generators.h"
#include "lsh/params.h"

namespace e2lshos::core {

/// The suites' common clustered workload shape (dim 24, 16 clusters).
inline data::GeneratorSpec StreamingTestSpec(uint64_t seed) {
  data::GeneratorSpec spec;
  spec.kind = data::GeneratorKind::kClustered;
  spec.dim = 24;
  spec.num_clusters = 16;
  spec.cluster_std = 3.0 / std::sqrt(48.0);
  spec.center_spread = 10.0 * std::sqrt(6.0 / 24.0);
  spec.seed = seed;
  return spec;
}

inline data::GeneratedData MakeStreamingTestData(uint64_t seed,
                                                 uint64_t n = 3000,
                                                 uint64_t num_queries = 40) {
  return data::Generate("streaming", n, num_queries, StreamingTestSpec(seed));
}

/// Candidate cap S far above the database size so no query ever drains:
/// per-query results are then independent of I/O completion order,
/// admission order, and shard assignment — which is what makes
/// "streamed == one-shot batch" an exact (bitwise) claim.
inline lsh::E2lshParams NeverDrainParams(const data::Dataset& base) {
  lsh::E2lshConfig cfg;
  cfg.rho = 0.25;
  cfg.s_factor = 1000.0;
  cfg.x_max = base.XMax();
  auto params = lsh::ComputeParams(base.n(), base.dim(), cfg);
  EXPECT_TRUE(params.ok());
  return *params;
}

/// A closed SubmissionQueue holding every row of `queries` in order, so
/// query ids are row indices and a serving run drains it, then stops.
inline std::unique_ptr<SubmissionQueue> FilledQueue(const data::Dataset& queries) {
  auto queue = std::make_unique<SubmissionQueue>(queries.dim(), queries.n());
  for (uint64_t q = 0; q < queries.n(); ++q) {
    EXPECT_TRUE(queue->TrySubmit(queries.Row(q)).ok());
  }
  queue->Close();
  return queue;
}

/// Thread-safe completion collector: id -> result, deliveries per id.
struct Collector {
  std::mutex mu;
  std::condition_variable delivered;
  std::map<uint64_t, QueryResult> results;
  std::map<uint64_t, int> deliveries;

  std::function<void(QueryResult&&)> Callback() {
    return [this](QueryResult&& r) {
      std::lock_guard<std::mutex> lock(mu);
      ++deliveries[r.id];
      results[r.id] = std::move(r);
      delivered.notify_all();
    };
  }

  /// True once the result for `id` was delivered.
  bool Has(uint64_t id) {
    std::lock_guard<std::mutex> lock(mu);
    return results.count(id) > 0;
  }

  /// Block until the result for `id` is delivered, then copy it to *out;
  /// false if `timeout` passes first.
  bool Await(uint64_t id, QueryResult* out,
             std::chrono::seconds timeout = std::chrono::seconds(30)) {
    std::unique_lock<std::mutex> lock(mu);
    if (!delivered.wait_for(lock, timeout,
                            [&] { return results.count(id) > 0; })) {
      return false;
    }
    *out = results[id];
    return true;
  }
};

inline void ExpectSameNeighbors(const std::vector<util::Neighbor>& got,
                                const std::vector<util::Neighbor>& want,
                                uint64_t id) {
  ASSERT_EQ(got.size(), want.size()) << "query id " << id;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "query id " << id << " rank " << i;
    EXPECT_EQ(got[i].dist, want[i].dist) << "query id " << id << " rank " << i;
  }
}

}  // namespace e2lshos::core

#include "e2lsh/in_memory.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "lsh/multi_probe.h"

#include "util/clock.h"
#include "util/distance.h"

namespace e2lshos::e2lsh {

Result<std::unique_ptr<InMemoryE2lsh>> InMemoryE2lsh::Build(
    const data::Dataset& base, const lsh::E2lshParams& params) {
  if (base.n() == 0) return Status::InvalidArgument("empty dataset");
  auto idx = std::make_unique<InMemoryE2lsh>();
  idx->base_ = &base;
  idx->params_ = params;
  lsh::FitLadderBottom(base.Row(0), base.n(), base.dim(), &idx->params_);
  idx->family_ = lsh::HashFamily(base.dim(), idx->params_);

  const uint32_t num_radii = idx->params_.num_radii();
  idx->tables_.resize(static_cast<size_t>(num_radii) * params.L);

  std::vector<std::pair<uint32_t, uint32_t>> pairs(base.n());  // (hash, id)
  for (uint32_t r = 0; r < num_radii; ++r) {
    for (uint32_t l = 0; l < params.L; ++l) {
      const lsh::CompoundHash& g = idx->family_.Get(r, l);
      for (uint64_t i = 0; i < base.n(); ++i) {
        pairs[i] = {g.Hash32(base.Row(i)), static_cast<uint32_t>(i)};
      }
      std::sort(pairs.begin(), pairs.end());

      BucketTable& table = idx->tables_[static_cast<size_t>(r) * params.L + l];
      table.ids.resize(pairs.size());
      uint64_t i = 0;
      while (i < pairs.size()) {
        const uint32_t key = pairs[i].first;
        table.keys.push_back(key);
        table.offsets.push_back(i);
        while (i < pairs.size() && pairs[i].first == key) {
          table.ids[i] = pairs[i].second;
          ++i;
        }
      }
      table.offsets.push_back(pairs.size());
    }
  }
  return idx;
}

std::vector<util::Neighbor> InMemoryE2lsh::Search(
    const float* query, uint32_t k, SearchStats* stats,
    std::vector<uint32_t>* bucket_read_sizes) const {
  const uint64_t start = util::NowNs();
  util::TopK topk(k);
  std::unordered_set<uint32_t> checked;
  SearchStats local;
  const uint32_t d = base_->dim();

  for (uint32_t r = 0; r < params_.num_radii(); ++r) {
    ++local.radii_searched;
    uint64_t checked_in_radius = 0;
    bool draining = false;

    for (uint32_t l = 0; l < params_.L && !draining; ++l) {
      const uint32_t h = family_.Get(r, l).Hash32(query);
      const BucketTable& table = Table(r, l);
      const auto it = std::lower_bound(table.keys.begin(), table.keys.end(), h);
      if (it == table.keys.end() || *it != h) continue;
      const size_t key_idx = static_cast<size_t>(it - table.keys.begin());
      const uint64_t begin = table.offsets[key_idx];
      const uint64_t end = table.offsets[key_idx + 1];

      ++local.buckets_probed;
      uint32_t entries_read = 0;
      for (uint64_t e = begin; e < end && !draining; ++e) {
        ++entries_read;
        ++local.entries_scanned;
        const uint32_t id = table.ids[e];
        if (!checked.insert(id).second) {
          ++local.dup_skips;
          continue;
        }
        const float dist = std::sqrt(util::SquaredL2(base_->Row(id), query, d));
        topk.Push(id, dist);
        ++local.candidates;
        if (++checked_in_radius >= params_.S) draining = true;
      }
      if (bucket_read_sizes != nullptr) bucket_read_sizes->push_back(entries_read);
    }

    const double radius = params_.radii[r];
    if (topk.full() && topk.WorstDist() <= params_.c * radius) break;
  }

  local.wall_ns = util::NowNs() - start;
  if (stats != nullptr) *stats = local;
  return topk.SortedResults();
}

std::vector<util::Neighbor> InMemoryE2lsh::SearchMultiProbe(
    const float* query, uint32_t k, uint32_t num_probes,
    SearchStats* stats) const {
  const uint64_t start = util::NowNs();
  util::TopK topk(k);
  std::unordered_set<uint32_t> checked;
  SearchStats local;
  const uint32_t d = base_->dim();
  const uint32_t m = params_.m;

  std::vector<int32_t> floors(m);
  std::vector<float> residuals(m);
  std::vector<uint32_t> probe_keys;
  std::vector<int8_t> deltas;

  for (uint32_t r = 0; r < params_.num_radii(); ++r) {
    ++local.radii_searched;
    uint64_t checked_in_radius = 0;
    bool draining = false;

    for (uint32_t l = 0; l < params_.L && !draining; ++l) {
      const lsh::CompoundHash& g = family_.Get(r, l);
      g.HashWithResiduals(query, floors.data(), residuals.data());

      probe_keys.clear();
      probe_keys.push_back(lsh::CompoundHash::Fold(floors.data(), m));
      lsh::MultiProbeSequence seq(residuals);
      for (uint32_t t = 0; t < num_probes && seq.Next(&deltas); ++t) {
        probe_keys.push_back(lsh::PerturbedHash32(floors.data(), deltas.data(), m));
      }

      const BucketTable& table = Table(r, l);
      for (const uint32_t key : probe_keys) {
        if (draining) break;
        const auto it = std::lower_bound(table.keys.begin(), table.keys.end(), key);
        if (it == table.keys.end() || *it != key) continue;
        const size_t key_idx = static_cast<size_t>(it - table.keys.begin());
        ++local.buckets_probed;
        for (uint64_t e = table.offsets[key_idx]; e < table.offsets[key_idx + 1];
             ++e) {
          ++local.entries_scanned;
          const uint32_t id = table.ids[e];
          if (!checked.insert(id).second) {
            ++local.dup_skips;
            continue;
          }
          const float dist = std::sqrt(util::SquaredL2(base_->Row(id), query, d));
          topk.Push(id, dist);
          ++local.candidates;
          if (++checked_in_radius >= params_.S) {
            draining = true;
            break;
          }
        }
      }
    }

    const double radius = params_.radii[r];
    if (topk.full() && topk.WorstDist() <= params_.c * radius) break;
  }

  local.wall_ns = util::NowNs() - start;
  if (stats != nullptr) *stats = local;
  return topk.SortedResults();
}

uint64_t InMemoryE2lsh::BucketSize(uint32_t radius_idx, uint32_t l,
                                   uint32_t hash32) const {
  const BucketTable& table = Table(radius_idx, l);
  const auto it = std::lower_bound(table.keys.begin(), table.keys.end(), hash32);
  if (it == table.keys.end() || *it != hash32) return 0;
  const size_t key_idx = static_cast<size_t>(it - table.keys.begin());
  return table.offsets[key_idx + 1] - table.offsets[key_idx];
}

InMemoryE2lsh::BatchResult InMemoryE2lsh::SearchBatch(const data::Dataset& queries,
                                                      uint32_t k) const {
  BatchResult out;
  out.results.resize(queries.n());
  out.stats.resize(queries.n());
  const uint64_t start = util::NowNs();
  for (uint64_t q = 0; q < queries.n(); ++q) {
    out.results[q] = Search(queries.Row(q), k, &out.stats[q]);
  }
  out.wall_ns = util::NowNs() - start;
  return out;
}

double InMemoryE2lsh::BatchResult::MeanRadii() const {
  if (stats.empty()) return 0.0;
  uint64_t total = 0;
  for (const auto& s : stats) total += s.radii_searched;
  return static_cast<double>(total) / static_cast<double>(stats.size());
}

double InMemoryE2lsh::BatchResult::MeanIosInfiniteBlock() const {
  if (stats.empty()) return 0.0;
  uint64_t total = 0;
  for (const auto& s : stats) total += s.IoCountInfiniteBlock();
  return static_cast<double>(total) / static_cast<double>(stats.size());
}

double InMemoryE2lsh::BatchResult::QueriesPerSecond() const {
  if (wall_ns == 0) return 0.0;
  return static_cast<double>(results.size()) * 1e9 / static_cast<double>(wall_ns);
}

uint64_t InMemoryE2lsh::IndexMemoryBytes() const {
  uint64_t bytes = family_.MemoryBytes();
  for (const auto& t : tables_) {
    bytes += t.keys.size() * sizeof(uint32_t) + t.offsets.size() * sizeof(uint64_t) +
             t.ids.size() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace e2lshos::e2lsh

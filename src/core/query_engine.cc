#include "core/query_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "util/clock.h"
#include "util/distance.h"

namespace e2lshos::core {

QueryEngine::QueryEngine(const StorageIndex* index, const data::Dataset* base,
                         const EngineOptions& options,
                         std::atomic<uint64_t>* latency_floor)
    : index_(index),
      base_(base),
      options_(options),
      floor_(latency_floor != nullptr ? latency_floor : &own_floor_) {
  if (options_.num_contexts == 0) options_.num_contexts = 1;
  if (options_.max_inflight_ios == 0) options_.max_inflight_ios = 1;
  cap_ = options_.max_inflight_ios;

  contexts_.resize(options_.num_contexts);
  for (auto& ctx : contexts_) {
    ctx.hashes.resize(index_->layout().L);
  }
  reached_.assign(index_->params().num_radii(), 0);
  advanced_.assign(index_->params().num_radii(), 0);
  // The layout comes from a built or validated index; cannot fail.
  codec_ = *ObjectInfoCodec::MakeWithIdBits(index_->layout().id_bits,
                                            index_->layout().fp);
  slots_.resize(options_.max_inflight_ios);
  free_slots_.reserve(slots_.size());
  // Reads are issued at the device's advertised granularity (io_alignment
  // probes 4096 on a 4Kn drive in direct mode); buffers get the matching
  // address alignment so direct submission never bounces.
  io_unit_ = std::max(storage::kSectorBytes, index_->device()->io_alignment());
  // A block not aligned to the device unit is read as the widened span
  // containing it, which can start up to one unit before the block and
  // end up to one unit after: size every slot for the worst case.
  const uint32_t slot_bytes =
      (index_->layout().block_bytes + 2 * io_unit_ - 1) / io_unit_ * io_unit_;
  // One contiguous arena, sliced into per-slot buffers: slot_bytes is a
  // multiple of io_unit_, so every slice keeps the device alignment — and
  // the whole thing registers with the device as a single fixed-buffer
  // region.
  arena_.Reset(static_cast<size_t>(slot_bytes) * slots_.size(), io_unit_);
  for (uint32_t i = 0; i < slots_.size(); ++i) {
    slots_[i].buf = arena_.data() + static_cast<size_t>(i) * slot_bytes;
    free_slots_.push_back(i);
  }
  if (options_.register_fixed_buffers) {
    // Best-effort: Unimplemented (backend has no fixed buffers) and
    // FailedPrecondition (shared device already registered by another
    // engine) both mean "run unregistered", not failure.
    fixed_buffers_active_ =
        index_->device()
            ->RegisterBuffers({{arena_.data(), arena_.size()}})
            .ok();
  }
}

void QueryEngine::StartQuery(Context* ctx) {
  ctx->busy = true;
  ++busy_;
  ctx->topk = std::make_unique<util::TopK>(ctx->query.k);
  ctx->checked.clear();
  ctx->radius_idx = 0;
  ctx->stats = QueryStats{};
  // Chain budgets follow the epoch's n: live inserts lengthen chains.
  ctx->epoch = index_->epoch_publisher()->Acquire();
  ctx->effective_n = ctx->epoch != nullptr ? ctx->epoch->n : index_->n();
  ctx->max_chain_blocks = static_cast<uint32_t>(
      ctx->effective_n / index_->layout().objects_per_block() + 2);
  ctx->start_ns = util::NowNs();
  BeginRadius(ctx);
}

void QueryEngine::BeginRadius(Context* ctx) {
  ctx->checked_in_radius = 0;
  ctx->draining = false;
  ++ctx->stats.radii_searched;
  Ahead& ahead = ctx->ahead;
  if (!ahead.started) {
    ctx->stats.buckets_probed +=
        QueueProbes(ctx, ctx->radius_idx, &ctx->to_issue);
    return;
  }
  // The rung was issued ahead: its queued probes and reads in flight
  // become current, and the blocks that already arrived are examined now,
  // in arrival order, before any later completion.
  ctx->stats.buckets_probed += ahead.buckets;
  ctx->stats.io_errors += ahead.errors;
  ctx->to_issue.swap(ahead.to_issue);
  ctx->pending_ios = ahead.pending_ios;
  for (const uint32_t slot_idx : ahead.parked) {
    Examine(ctx, slots_[slot_idx]);
    free_slots_.push_back(slot_idx);
  }
  ahead.Reset();
  if (ctx->draining) ctx->to_issue.clear();
}

uint64_t QueryEngine::QueueProbes(Context* ctx, uint32_t radius,
                                  std::deque<PendingIssue>* out) {
  const IndexLayout& layout = index_->layout();
  const uint64_t t0 = util::NowNs();
  index_->family().HashAll(radius, ctx->q, ctx->hashes.data());
  compute_ns_ += util::NowNs() - t0;

  const EpochState* epoch = ctx->epoch.get();
  const std::unordered_map<uint64_t, uint64_t>* overlay =
      (epoch != nullptr && epoch->overlay != nullptr &&
       !epoch->overlay->empty())
          ? epoch->overlay.get()
          : nullptr;
  uint64_t queued = 0;
  for (uint32_t l = 0; l < layout.L; ++l) {
    const uint32_t h = ctx->hashes[l];
    const uint32_t slot = layout.fp.TableIndex(h);
    // A live mutation may have redirected this bucket's chain head since
    // the last save; otherwise the head is computed in DRAM, and an
    // empty bucket costs no I/O at all.
    uint64_t head = 0;
    if (overlay != nullptr) {
      const auto it = overlay->find(index_->BucketKey(radius, l, slot));
      if (it != overlay->end()) head = it->second;
    }
    if (head == 0) head = index_->ChainHead(radius, l, slot);
    if (head == 0) continue;
    ++queued;
    PendingIssue p;
    p.addr = head;
    p.expected_fp = layout.fp.Fingerprint(h);
    p.chain_budget = ctx->max_chain_blocks;
    out->push_back(p);
  }
  return queued;
}

bool QueryEngine::Climbs(uint32_t r) const {
  return r + 1 < reached_.size() && 2 * advanced_[r] >= reached_[r];
}

bool QueryEngine::IssueFrom(Context* ctx, bool idle) {
  const uint32_t r = ctx->radius_idx;
  const bool issued = Submit(ctx, &ctx->to_issue, r, 0);
  if (!idle || !ctx->to_issue.empty() || !Climbs(r)) return issued;
  Ahead& ahead = ctx->ahead;
  if (!ahead.started) {
    ahead.started = true;
    ahead.buckets = QueueProbes(ctx, r + 1, &ahead.to_issue);
  }
  // Keep a free slot for every busy context, so none waits on a read it
  // may never examine.
  return Submit(ctx, &ahead.to_issue, r + 1, busy_) || issued;
}

bool QueryEngine::Submit(Context* ctx, std::deque<PendingIssue>* queue,
                         uint32_t radius, size_t reserve) {
  const bool ahead = radius != ctx->radius_idx;
  bool issued = false;
  while (!queue->empty() && free_slots_.size() > reserve) {
    // At the cap the rest wait here, where a rung that reaches S drops
    // them before they cost the device anything.
    if (inflight_ >= cap_ && (ahead || ctx->pending_ios > 0)) break;
    const PendingIssue p = queue->front();
    const uint32_t slot_idx = free_slots_.back();
    IoSlot& slot = slots_[slot_idx];

    // Bucket blocks are sized by the layout, not the device: on a device
    // whose alignment exceeds the block size (4Kn direct mode over a
    // 512-byte-block layout) widen the read to the aligned span
    // containing the block.
    storage::IoRequest req;
    uint32_t buf_offset = 0;
    const uint32_t block_bytes = index_->layout().block_bytes;
    if (p.addr % io_unit_ == 0 && block_bytes % io_unit_ == 0) {
      req.offset = p.addr;
      req.length = block_bytes;
    } else {
      const uint64_t aligned = p.addr & ~static_cast<uint64_t>(io_unit_ - 1);
      buf_offset = static_cast<uint32_t>(p.addr - aligned);
      req.offset = aligned;
      req.length =
          (buf_offset + block_bytes + io_unit_ - 1) / io_unit_ * io_unit_;
    }
    req.buf = slot.buf;
    req.user_data = slot_idx;

    const Status st = index_->device()->SubmitRead(req);
    if (!st.ok()) {
      if (st.code() == StatusCode::kResourceExhausted) {
        // Device queue full: retry after draining completions.
        break;
      }
      // Hard submit error (I/O failure, bad address from a corrupted
      // chain pointer): drop the probe and carry on — a lost bucket
      // costs candidates, never progress. An ahead probe's loss counts
      // only if its rung is examined.
      queue->pop_front();
      ++(ahead ? ctx->ahead.errors : ctx->stats.io_errors);
      continue;
    }
    queue->pop_front();
    free_slots_.pop_back();
    slot.ctx = static_cast<uint32_t>(ctx - contexts_.data());
    slot.gen = ctx->gen;
    slot.radius = radius;
    slot.expected_fp = p.expected_fp;
    slot.chain_budget = p.chain_budget;
    slot.buf_offset = buf_offset;
    ++inflight_;
    ++ctx->stats.ios;
    ++ctx->stats.bucket_block_reads;
    if (ahead) {
      ++ctx->ahead.pending_ios;
      ++ctx->ahead.reads;
      ++ctx->stats.ahead_reads;
    } else {
      ++ctx->pending_ios;
    }
    issued = true;
  }
  return issued;
}

void QueryEngine::AdjustCap(uint64_t latency_ns, bool backlog) {
  if (latency_ns == 0) return;  // a cache hit or DRAM: no device time
  uint64_t lowest = floor_->load();
  while (latency_ns < lowest &&
         !floor_->compare_exchange_weak(lowest, latency_ns)) {
  }
  lowest = std::min(lowest, latency_ns);
  if (latency_ns <= 2 * lowest) {
    cap_ = std::min(cap_ + 1, options_.max_inflight_ios);
  } else if (backlog && cap_ > 1) {
    --cap_;  // it waited in the device longer than it took to serve
  }
}

void QueryEngine::ProcessBucketBlock(Context* ctx, const IoSlot& slot) {
  const IndexLayout& layout = index_->layout();
  const ObjectInfoCodec& codec = codec_;

  const uint8_t* block = slot.buf + slot.buf_offset;
  const BlockHeader hdr = BlockHeader::DecodeFrom(block);
  const uint32_t per_block = layout.objects_per_block();
  // Clamp in the uint32_t domain: a uint16_t min would truncate
  // per_block when a large block layout holds > 65535 entries.
  const uint32_t count = std::min<uint32_t>(hdr.count, per_block);

  if (!VerifyBlockCrc(block, layout.block_bytes)) {
    // Bit-rot (or an in-flight scramble) detected: never surface entries
    // from this block, and never trust its next pointer — the chain is
    // truncated here. The clamped count is the best available estimate
    // of what was lost.
    ++ctx->stats.corrupt_blocks;
    ctx->stats.dropped_candidates += count;
    return;
  }

  const uint64_t t0 = util::NowNs();
  const uint8_t* entry = block + kBlockHeaderBytes;
  bool matched = false;
  for (uint32_t e = 0; e < count && !ctx->draining; ++e, entry += kObjectInfoBytes) {
    const uint64_t v = codec.Read(entry);
    if (layout.fp.fingerprint_bits() > 0 &&
        codec.DecodeFingerprint(v) != slot.expected_fp) {
      ++ctx->stats.fp_rejects;
      continue;
    }
    matched = true;
    const uint32_t id = codec.DecodeId(v);
    if (id >= ctx->effective_n) {
      // Corrupted entry (id beyond the database): never dereference it.
      ++ctx->stats.io_errors;
      continue;
    }
    if (!ctx->checked.insert(id).second) {
      ++ctx->stats.dup_skips;
      continue;
    }
    // With an epoch pinned, its tombstone set is the complete live
    // truth; the index's own copy is frozen at built/loaded state.
    const EpochState* epoch = ctx->epoch.get();
    const bool deleted =
        epoch != nullptr ? epoch->IsDeleted(id) : index_->IsDeleted(id);
    if (deleted) {
      ++ctx->stats.tombstone_skips;
      continue;
    }
    const float* row = (epoch != nullptr && id >= epoch->base_rows)
                           ? epoch->RowPtr(id)
                           : base_->Row(id);
    const float dist = std::sqrt(util::SquaredL2(row, ctx->q, base_->dim()));
    ctx->topk->Push(id, dist);
    ++ctx->stats.candidates;
    if (++ctx->checked_in_radius >= index_->params().S) {
      ctx->draining = true;  // paper: stop after examining S candidates
    }
  }
  compute_ns_ += util::NowNs() - t0;
  if (!matched) ++ctx->stats.empty_reads;

  if (!ctx->draining && hdr.next != 0) {
    if (slot.chain_budget == 0) {
      // A healthy chain can never exceed ceil(n / objects_per_block)
      // blocks; a longer one is a corrupted (possibly cyclic) pointer.
      ++ctx->stats.io_errors;
      return;
    }
    PendingIssue p;
    p.addr = hdr.next;
    p.expected_fp = slot.expected_fp;
    p.chain_budget = slot.chain_budget - 1;
    ctx->to_issue.push_back(p);
  }
}

void QueryEngine::HandleCompletion(const storage::IoCompletion& comp,
                                   QuerySource* source) {
  const uint32_t slot_idx = static_cast<uint32_t>(comp.user_data);
  IoSlot& slot = slots_[slot_idx];
  Context* ctx = &contexts_[slot.ctx];

  --inflight_;
  if (slot.gen != ctx->gen) {
    // Issued ahead by a query that has since finished.
    free_slots_.push_back(slot_idx);
    return;
  }
  slot.code = comp.code;
  if (slot.radius != ctx->radius_idx) {
    // The next rung's block: parked, unverified, until the query climbs.
    --ctx->ahead.pending_ios;
    ctx->ahead.parked.push_back(slot_idx);
    return;
  }
  --ctx->pending_ios;
  Examine(ctx, slot);
  free_slots_.push_back(slot_idx);

  // When draining, queued probes for this radius are abandoned.
  if (ctx->draining) ctx->to_issue.clear();
  MaybeAdvance(ctx, source);
}

void QueryEngine::Examine(Context* ctx, const IoSlot& slot) {
  if (ctx->draining) {
    // The rung has examined S candidates: this block can add nothing,
    // whatever it holds or however its read ended.
    ++ctx->stats.late_reads;
  } else if (slot.code == StatusCode::kOk) {
    ProcessBucketBlock(ctx, slot);
  } else {
    ++ctx->stats.io_errors;
  }
}

void QueryEngine::MaybeAdvance(Context* ctx, QuerySource* source) {
  const lsh::E2lshParams& params = index_->params();
  while (ctx->pending_ios == 0 && ctx->to_issue.empty()) {
    // Radius drained: terminal test of the (R,c)-NN ladder. A query is
    // answered once the k-th best distance is within c*R, or the ladder
    // is exhausted.
    const uint32_t r = ctx->radius_idx;
    const bool satisfied = ctx->topk->full() &&
                           ctx->topk->WorstDist() <= params.c * params.radii[r];
    const bool last = r + 1 >= params.num_radii();
    if (!last) {  // the climb history that Climbs reads
      ++reached_[r];
      advanced_[r] += satisfied ? 0 : 1;
    }
    if (satisfied || last) {
      FinishQuery(ctx, source);
      return;
    }
    ++ctx->radius_idx;
    BeginRadius(ctx);
    // Loop: the next radius may also have zero non-empty probes.
  }
}

void QueryEngine::FinishQuery(Context* ctx, QuerySource* source) {
  // A rung issued ahead and never reached: its parked blocks go back
  // unexamined, and its reads still in flight find a newer generation.
  Ahead& ahead = ctx->ahead;
  ctx->stats.ahead_unused += ahead.reads;
  free_slots_.insert(free_slots_.end(), ahead.parked.begin(),
                     ahead.parked.end());
  ahead.Reset();
  ++ctx->gen;
  ctx->stats.wall_ns = util::NowNs() - ctx->start_ns;
  ctx->stats.partial =
      ctx->stats.corrupt_blocks > 0 || ctx->stats.io_errors > 0;
  ctx->epoch.reset();  // superseded epochs die once no query holds them
  ctx->busy = false;
  --busy_;
  source->Finish(ctx->query, ctx->topk->SortedResults(), ctx->stats);
}

void QueryEngine::Run(QuerySource* source) {
  storage::IoCompletion comps[64];
  bool open = true;
  uint32_t idle_spins = 0;
  for (;;) {
    // An empty engine holds nothing back: a cap that a past burst shrank
    // must not serialize the next lone query.
    if (busy_ == 0 && inflight_ == 0) cap_ = options_.max_inflight_ios;
    bool progressed = false;
    // Idle round: a free context found the stream open and empty, so the
    // device has room for next rungs issued ahead.
    bool idle = false;
    for (auto& ctx : contexts_) {
      if (!open) break;
      if (ctx.busy) continue;
      const StreamPull pull = source->Pull(&ctx.query, &ctx.q);
      if (pull != StreamPull::kReady) {
        open = pull != StreamPull::kClosed;
        idle = pull == StreamPull::kPending;
        break;
      }
      StartQuery(&ctx);
      progressed = true;
    }
    if (busy_ == 0 && inflight_ == 0) {
      source->EndPoll();
      if (!open) return;
      // Idle: nothing in flight and nothing queued. Sleep briefly so an
      // idle shard doesn't spin a core.
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      continue;
    }

    for (auto& ctx : contexts_) {
      if (!ctx.busy) continue;
      progressed |= IssueFrom(&ctx, idle);
      // If every probe of the radius was dropped at submission (hard I/O
      // errors), or the radius had none, no completion will arrive to
      // advance this context — do it here. No-op while I/Os are pending
      // or queued.
      if (ctx.pending_ios == 0 && ctx.to_issue.empty()) {
        MaybeAdvance(&ctx, source);
        progressed = true;
      }
    }
    const size_t n = index_->device()->PollCompletions(comps, 64);
    const bool backlog = open && !idle;
    for (size_t i = 0; i < n; ++i) {
      AdjustCap(comps[i].latency_ns, backlog);
      HandleCompletion(comps[i], source);
    }
    source->EndPoll();
    progressed |= n > 0;
    if (progressed) {
      idle_spins = 0;
    } else {
#if defined(__x86_64__)
      __builtin_ia32_pause();
#endif
      // After a long dry spell, yield the core: when several engines
      // share fewer cores than threads, pure spin-polling would starve
      // whichever thread could actually make progress.
      if (++idle_spins >= 512) {
        idle_spins = 0;
        std::this_thread::yield();
      }
    }
  }
}

Result<BatchResult> QueryEngine::SearchBatch(const data::Dataset& queries,
                                             uint32_t k) {
  if (queries.dim() != base_->dim()) {
    return Status::InvalidArgument("query dimension mismatch");
  }
  if (k == 0) return Status::InvalidArgument("k must be > 0");
  BatchResult out;
  out.results.resize(queries.n());
  out.stats.resize(queries.n());
  RowSource rows(queries, k, &out);
  const uint64_t compute_before = compute_ns_;
  const uint64_t start = util::NowNs();
  Run(&rows);
  out.wall_ns = util::NowNs() - start;
  out.compute_ns = compute_ns_ - compute_before;
  return out;
}

Result<std::vector<util::Neighbor>> QueryEngine::Search(const float* query,
                                                        uint32_t k,
                                                        QueryStats* stats) {
  data::Dataset one("single", base_->dim());
  one.Append(query);
  E2_ASSIGN_OR_RETURN(BatchResult batch, SearchBatch(one, k));
  if (stats != nullptr) *stats = batch.stats[0];
  return batch.results[0];
}

}  // namespace e2lshos::core

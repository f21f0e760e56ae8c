#include "legs.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <limits>

#include "util/clock.h"

namespace perfbench {

using e2lshos::Result;
using e2lshos::Status;
using e2lshos::util::NowNs;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One answered request of a closed loop: its queries are spread evenly
/// over [start, end] when throughput is split into windows.
struct Frame {
  uint64_t start = 0, end = 0;
  uint32_t answered = 0;
};

/// Answered queries per second in each of kWindows equal time windows
/// of [t0, t1].
std::vector<double> WindowRates(const std::vector<Frame>& frames, uint64_t t0,
                                uint64_t t1) {
  if (frames.empty() || t1 <= t0) return {};
  const double span = static_cast<double>(t1 - t0) / kWindows;
  std::vector<double> answered_in(kWindows, 0.0);
  for (const Frame& f : frames) {
    const double fs = static_cast<double>(f.start - t0);
    const double fe = static_cast<double>(f.end - t0);
    const double per_ns = f.answered / std::max(1.0, fe - fs);
    for (uint32_t w = 0; w < kWindows; ++w) {
      const double lo = std::max(fs, w * span), hi = std::min(fe, (w + 1) * span);
      if (hi > lo) answered_in[w] += (hi - lo) * per_ns;
    }
  }
  for (double& a : answered_in) a = a * 1e9 / span;
  return answered_in;
}

/// Account one answer: failures and check mismatches count as failed;
/// returns true when it may be timed.
bool Accept(const Answer& a, uint32_t q, Load* load) {
  load->tally->attempted.fetch_add(1, std::memory_order_relaxed);
  if (!a.status.ok()) {
    load->tally->Fail("query failed: " + a.status.ToString(), false);
    return false;
  }
  if (!CheckAnswer(a.neighbors, load->n_bound.load(), load->tally)) {
    return false;
  }
  if (load->accuracy != nullptr) {
    load->accuracy->Add(load->in->gt, q, a.neighbors);
  }
  return true;
}

void Gather(const Inputs& in, bool zipf, uint64_t stream, uint64_t first,
            uint32_t count, std::vector<float>* buf,
            std::vector<uint32_t>* ids) {
  buf->resize(size_t{count} * kDim);
  ids->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t q = in.Draw(zipf, stream, first + i);
    (*ids)[i] = q;
    std::copy_n(in.templates.Row(q), kDim, buf->data() + size_t{i} * kDim);
  }
}

}  // namespace

Status Conn::Search(const float* queries, uint32_t count,
                    std::vector<Answer>* out) {
  const uint64_t t0 = NowNs();
  auto res = client_->SearchBatch(kIndexName, queries, count, kDim, kK);
  const uint64_t t1 = NowNs();
  out->assign(count, Answer{});
  if (!res.ok()) {
    for (Answer& a : *out) a.status = res.status();
    return res.status();
  }
  if (res->size() != count) {
    for (Answer& a : *out) a.status = Status::Internal("short response");
    return Status::Internal("short response");
  }
  Tracer& tr = GlobalTracer();
  const uint64_t frame = tr.Add("net.client.frame", t0, t1, 0, frames_++);
  for (uint32_t i = 0; i < count; ++i) {
    Answer& a = (*out)[i];
    a.status = (*res)[i].status;
    a.neighbors = std::move((*res)[i].neighbors);
    a.server_ns = (*res)[i].latency_ns;
    // The server's clock span is known only as a duration; it ends
    // before the response frame does, so anchor it there.
    if (tr.on()) {
      tr.Add("core.server.query", t1 - std::min(a.server_ns, t1 - t0), t1,
             frame, i);
    }
  }
  return Status::OK();
}

WriteTarget RemoteWrites(e2lshos::net::Client* client) {
  WriteTarget t;
  t.insert = [client](const float* rows, uint32_t count) -> Result<uint32_t> {
    E2_ASSIGN_OR_RETURN(auto ack, client->Insert(kIndexName, rows, count, kDim));
    if (ack.count_applied != count) {
      return Status::Internal("insert applied " +
                              std::to_string(ack.count_applied) + " of " +
                              std::to_string(count));
    }
    return ack.first_id;
  };
  t.remove = [client](const uint32_t* ids, uint32_t count) -> Status {
    E2_ASSIGN_OR_RETURN(auto ack, client->Remove(kIndexName, ids, count));
    if (ack.count_applied != count) {
      return Status::Internal("remove applied " +
                              std::to_string(ack.count_applied) + " of " +
                              std::to_string(count));
    }
    return Status::OK();
  };
  t.op_span = "net.client.write_op";
  t.insert_span = "net.client.insert";
  t.remove_span = "net.client.remove";
  return t;
}

WriteTarget LocalWrites(e2lshos::Index* index) {
  WriteTarget t;
  t.insert = [index](const float* rows, uint32_t count) {
    return index->InsertBatch(rows, count);
  };
  t.remove = [index](const uint32_t* ids, uint32_t count) {
    return index->RemoveBatch(ids, count);
  };
  t.op_span = "api.index.write_op";
  t.insert_span = "api.index.insert_batch";
  t.remove_span = "api.index.remove_batch";
  return t;
}

void SleepUntilNs(uint64_t ns) {
  if (NowNs() >= ns) return;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns / 1000000000ULL);
  ts.tv_nsec = static_cast<long>(ns % 1000000000ULL);
  // steady_clock is CLOCK_MONOTONIC on Linux.
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

LegResult ClosedLoop(const std::string& name, const std::vector<Conn*>& conns,
                     Load* load, double seconds, uint64_t stream) {
  LegResult leg;
  leg.name = name;
  const uint64_t t0 = NowNs();
  const uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
  std::mutex mu;
  uint64_t last_end = t0;
  std::vector<Frame> all_frames;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      std::vector<float> buf;
      std::vector<uint32_t> ids;
      std::vector<Answer> answers;
      std::vector<double> lat;
      std::vector<Frame> frames;
      uint64_t answered = 0, end = t0;
      for (uint64_t f = 0; NowNs() < deadline; ++f) {
        Gather(*load->in, load->zipf, stream * 16 + c, f * kFrameCap,
               kFrameCap, &buf, &ids);
        const uint64_t s = NowNs();
        (void)conns[c]->Search(buf.data(), kFrameCap, &answers);
        end = NowNs();
        Frame frame{s, end, 0};
        for (uint32_t i = 0; i < kFrameCap; ++i) {
          const bool ok = Accept(answers[i], ids[i], load);
          frame.answered += ok ? 1 : 0;
          lat.push_back(ok ? static_cast<double>(end - s) / 1e6 : kInf);
        }
        answered += frame.answered;
        frames.push_back(frame);
      }
      std::lock_guard<std::mutex> lock(mu);
      leg.answered += answered;
      all_frames.insert(all_frames.end(), frames.begin(), frames.end());
      leg.lat_ms.insert(leg.lat_ms.end(), lat.begin(), lat.end());
      last_end = std::max(last_end, end);
    });
  }
  for (auto& t : threads) t.join();
  leg.t_start = t0;
  leg.t_end = last_end;
  leg.seconds = static_cast<double>(last_end - t0) / 1e9;
  leg.window_qps = WindowRates(all_frames, t0, last_end);
  return leg;
}

LegResult OpenLoop(const std::string& name, const std::vector<Conn*>& conns,
                   Load* load, double qps, double seconds, uint64_t stream) {
  LegResult leg;
  leg.name = name;
  const double interval = 1e9 / qps;
  const uint64_t total = static_cast<uint64_t>(std::llround(qps * seconds));
  const uint64_t t0 = NowNs() + 1000000;  // first arrival in 1 ms
  auto due = [&](uint64_t i) {
    return t0 + static_cast<uint64_t>(std::llround(interval * i));
  };
  leg.lat_ms.assign(total, kInf);
  leg.late_us.assign(total, 0);

  // Leader/follower: one idle connection sleeps until the next arrival
  // and claims every query due by then; the others wait for their turn.
  std::mutex mu;
  std::condition_variable cv;
  uint64_t next = 0, last_end = t0, answered = 0;
  bool leader = false;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      std::vector<float> buf;
      std::vector<uint32_t> ids;
      std::vector<Answer> answers;
      std::unique_lock<std::mutex> lock(mu);
      while (next < total) {
        const uint64_t now = NowNs();
        if (now < due(next)) {
          if (leader) {
            cv.wait(lock);
            continue;
          }
          leader = true;
          const uint64_t wake = due(next);
          lock.unlock();
          SleepUntilNs(wake);
          lock.lock();
          leader = false;
          continue;
        }
        const uint64_t due_count = std::min<uint64_t>(
            total, static_cast<uint64_t>((now - t0) / interval) + 1);
        const uint64_t begin = next;
        const uint64_t end = std::min<uint64_t>(
            std::max(due_count, begin + 1), begin + kFrameCap);
        next = end;
        cv.notify_one();  // someone else leads the next arrival
        lock.unlock();

        const uint32_t count = static_cast<uint32_t>(end - begin);
        Gather(*load->in, load->zipf, stream, begin, count, &buf, &ids);
        const uint64_t sent = NowNs();
        (void)conns[c]->Search(buf.data(), count, &answers);
        const uint64_t done = NowNs();
        uint64_t ok_count = 0;
        for (uint32_t i = 0; i < count; ++i) {
          const uint64_t q = begin + i;
          leg.late_us[q] = static_cast<double>(sent - due(q)) / 1e3;
          if (Accept(answers[i], ids[i], load)) {
            leg.lat_ms[q] = static_cast<double>(done - due(q)) / 1e6;
            ++ok_count;
          }
        }
        lock.lock();
        answered += ok_count;
        last_end = std::max(last_end, done);
      }
      cv.notify_all();
    });
  }
  for (auto& t : threads) t.join();
  leg.answered = answered;
  leg.t_start = t0;
  leg.t_end = due(total);
  leg.seconds = static_cast<double>(last_end - t0) / 1e9;
  if (!leg.late_us.empty()) {
    leg.backlog_late_us = Median(std::vector<double>(
        leg.late_us.end() -
            static_cast<long>(std::max<size_t>(1, leg.late_us.size() / 10)),
        leg.late_us.end()));
  }
  return leg;
}

LegResult Merge(const std::vector<LegResult>& segments, const Writer* writer) {
  LegResult leg;
  for (const LegResult& s : segments) {
    leg.name = s.name;
    leg.answered += s.answered;
    leg.seconds += s.seconds;
    leg.lat_ms.insert(leg.lat_ms.end(), s.lat_ms.begin(), s.lat_ms.end());
    leg.late_us.insert(leg.late_us.end(), s.late_us.begin(), s.late_us.end());
    leg.window_qps.insert(leg.window_qps.end(), s.window_qps.begin(),
                          s.window_qps.end());
    leg.backlog_late_us = std::max(leg.backlog_late_us, s.backlog_late_us);
    if (writer != nullptr) {
      const std::vector<double> ops = writer->LatenciesMs(s.t_start, s.t_end);
      leg.update_ms.insert(leg.update_ms.end(), ops.begin(), ops.end());
    }
  }
  return leg;
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

uint32_t Writer::PoolOps(double seconds) {
  // Timed seconds plus warm-ups, traced legs and slack.
  return static_cast<uint32_t>(std::ceil((2 * seconds + 20) * kWriteOpsPerSec));
}

void Writer::Start() {
  stop_ = false;
  thread_ = std::thread([this] { Run(); });
}

void Writer::Stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
}

void Writer::Run() {
  const Inputs& in = *load_->in;
  const uint64_t interval = static_cast<uint64_t>(1e9 / kWriteOpsPerSec);
  const uint64_t t0 = NowNs() + 1000000;
  Tracer& tr = GlobalTracer();
  uint32_t j = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    j = static_cast<uint32_t>(ops_.size());  // continue after a restart
  }
  const uint32_t j0 = j;
  for (;; ++j) {
    const uint64_t due = t0 + (j - j0) * interval;
    while (!stop_ && NowNs() + 50000000 < due) {
      SleepUntilNs(NowNs() + 50000000);
    }
    if (stop_) break;
    SleepUntilNs(due);
    const size_t row0 = size_t{j} * kInsertRows;
    const size_t id0 = size_t{j} * kRemoveIds;
    if (row0 + kInsertRows > in.insert_pool.n() ||
        id0 + kRemoveIds > in.remove_pool.size()) {
      break;  // pool sized by PoolOps(); never reached in a normal run
    }
    Op op;
    op.due = due;
    op.rows = kInsertRows;
    load_->n_bound.fetch_add(kInsertRows);
    load_->tally->attempted.fetch_add(1, std::memory_order_relaxed);
    op.ins_start = NowNs();
    auto first = target_.insert(in.insert_pool.Row(row0), kInsertRows);
    op.ins_end = NowNs();
    Status rm = Status::OK();
    if (first.ok()) {
      op.first_id = *first;
      rm = target_.remove(in.remove_pool.data() + id0, kRemoveIds);
    }
    op.rm_end = NowNs();
    op.ok = first.ok() && rm.ok();
    if (!first.ok()) {
      load_->tally->Fail("insert failed: " + first.status().ToString(), false);
    } else if (!rm.ok()) {
      load_->tally->Fail("remove failed: " + rm.ToString(), false);
    }
    if (tr.on()) {
      const uint64_t parent =
          tr.Add(target_.op_span, op.ins_start, op.rm_end, 0, j);
      tr.Add(target_.insert_span, op.ins_start, op.ins_end, parent, j);
      tr.Add(target_.remove_span, op.ins_end, op.rm_end, parent, j);
    }
    std::lock_guard<std::mutex> lock(mu_);
    ops_.push_back(op);
  }
}

std::vector<double> Writer::LatenciesMs(uint64_t t0, uint64_t t1) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Op& op : ops_) {
    if (op.due < t0 || op.due >= t1) continue;
    out.push_back(op.ok ? static_cast<double>(op.rm_end - op.due) / 1e6 : kInf);
  }
  return out;
}

std::vector<std::pair<uint32_t, size_t>> Writer::inserted() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<uint32_t, size_t>> out;
  for (size_t j = 0; j < ops_.size(); ++j) {
    if (ops_[j].first_id == 0) continue;  // the insert was not acknowledged
    for (uint32_t r = 0; r < ops_[j].rows; ++r) {
      out.emplace_back(ops_[j].first_id + r, j * kInsertRows + r);
    }
  }
  return out;
}

std::vector<uint32_t> Writer::removed() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint32_t> out;
  for (size_t j = 0; j < ops_.size(); ++j) {
    if (!ops_[j].ok) continue;
    for (uint32_t r = 0; r < kRemoveIds; ++r) {
      out.push_back(load_->in->remove_pool[j * kRemoveIds + r]);
    }
  }
  return out;
}

double Writer::InsertMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  double ms = 0;
  for (const Op& op : ops_) {
    if (op.first_id != 0) ms += static_cast<double>(op.ins_end - op.ins_start) / 1e6;
  }
  return ms;
}

uint32_t Writer::rows_inserted() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t rows = 0;
  for (const Op& op : ops_) rows += op.first_id != 0 ? op.rows : 0;
  return rows;
}

}  // namespace perfbench

#include "storage/block_device.h"

#include <algorithm>
#include <iterator>
#include <thread>

namespace e2lshos::storage {

Status BlockDevice::RegisterBuffers(
    const std::vector<std::pair<void*, size_t>>&) {
  return Status::Unimplemented("fixed buffers are not supported by " + name());
}

QueueResult BlockDevice::CreateQueue(const QueueOptions&) {
  return Status::Unimplemented(name() + " cannot create queues");
}

Status BlockDevice::ReadSync(const IoRequest* reqs, size_t count) {
  Status first_error = Status::OK();
  std::vector<bool> done(count, false);
  size_t submitted = 0;
  size_t in_flight = 0;
  IoCompletion comps[64];
  uint32_t idle_polls = 0;
  for (;;) {
    while (submitted < count && first_error.ok()) {
      IoRequest req = reqs[submitted];
      req.user_data = submitted;
      const Status st = SubmitRead(req);
      // A full queue with reads of ours in flight drains below; with none
      // in flight it can never drain for us, so it is the error.
      if (st.code() == StatusCode::kResourceExhausted && in_flight > 0) break;
      if (!st.ok()) {
        first_error = st;
        break;
      }
      ++submitted;
      ++in_flight;
    }
    if (in_flight == 0) return first_error;  // all done, or nothing to drain
    const size_t got =
        PollCompletions(comps, std::min(std::size(comps), in_flight));
    // mem:-class devices complete before the first poll, so a short grace
    // spin keeps them syscall-free; past that the completions are being
    // held back by a timed or real device and a tight loop would starve
    // every other thread on the core for the full service time.
    if (got == 0) {
      if (++idle_polls > 64) std::this_thread::yield();
      continue;
    }
    idle_polls = 0;
    for (size_t i = 0; i < got; ++i) {
      const uint64_t tag = comps[i].user_data;
      if (tag >= submitted || done[tag]) {
        if (first_error.ok()) {
          first_error =
              Status::Internal("unexpected completion during sync read");
        }
        continue;
      }
      done[tag] = true;
      --in_flight;
      if (comps[i].code != StatusCode::kOk && first_error.ok()) {
        first_error = Status(comps[i].code, "sync read failed");
      }
    }
  }
}

}  // namespace e2lshos::storage

#include "tape/cache.h"

#include <chrono>

namespace selcache::tape {

TapeCache::TapePtr TapeCache::get_or_record(
    const std::string& key, const std::function<Tape()>& record,
    bool* recorded_here) {
  if (recorded_here != nullptr) *recorded_here = false;

  std::promise<TapePtr> promise;
  std::shared_future<TapePtr> waiter;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tapes_.find(key);
    if (it != tapes_.end()) {
      waiter = it->second;
    } else {
      tapes_.emplace(key, promise.get_future().share());
    }
  }
  if (waiter.valid()) return waiter.get();  // rethrows a recording failure

  // We won the claim: run the recording simulation outside the lock.
  try {
    TapePtr tape = std::make_shared<const Tape>(record());
    promise.set_value(tape);
    if (recorded_here != nullptr) *recorded_here = true;
    return tape;
  } catch (...) {
    // Release the claim so a later call can retry, then fail waiters and
    // the caller with the original exception.
    {
      std::lock_guard<std::mutex> lock(mu_);
      tapes_.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
}

TapeCache::TapePtr TapeCache::find(const std::string& key) const {
  std::shared_future<TapePtr> fut;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tapes_.find(key);
    if (it == tapes_.end()) return nullptr;
    fut = it->second;
  }
  if (fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
    return nullptr;
  return fut.get();
}

std::vector<std::pair<std::string, TapeCache::TapePtr>> TapeCache::snapshot()
    const {
  std::vector<std::pair<std::string, std::shared_future<TapePtr>>> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending.assign(tapes_.begin(), tapes_.end());
  }
  std::vector<std::pair<std::string, TapePtr>> out;
  out.reserve(pending.size());
  for (auto& [key, fut] : pending)
    if (fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready)
      out.emplace_back(key, fut.get());
  return out;
}

std::size_t TapeCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tapes_.size();
}

void TapeCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  tapes_.clear();
}

}  // namespace selcache::tape

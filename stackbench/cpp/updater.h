// Applies policy updates off the request path. Generator threads call
// Trigger() at a fixed op cadence; one updater thread applies each
// trigger in turn, the way an operator's push lands beside live traffic
// rather than inside a request.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

namespace stackbench {

class Updater {
 public:
  explicit Updater(std::function<void()> update)
      : update_(std::move(update)), thread_([this] { Loop(); }) {}
  // Applies every trigger still pending, then joins.
  ~Updater() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Updater(const Updater&) = delete;
  Updater& operator=(const Updater&) = delete;

  void Trigger() {
    {
      std::lock_guard lock(mu_);
      ++pending_;
    }
    cv_.notify_one();
  }

 private:
  void Loop() {
    std::unique_lock lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return pending_ > 0 || stop_; });
      if (pending_ == 0) return;  // stop_ with nothing left to apply
      --pending_;
      lock.unlock();
      update_();
      lock.lock();
    }
  }

  std::function<void()> update_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t pending_ = 0;  // guarded by mu_
  bool stop_ = false;          // guarded by mu_
  std::thread thread_;         // last: starts once the members it uses exist
};

}  // namespace stackbench

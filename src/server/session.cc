#include "server/session.h"

#include <algorithm>

namespace cactis::server {

std::shared_ptr<Session> SessionManager::Open(uint64_t now_ms) {
  std::lock_guard<std::mutex> lk(mu_);
  SessionId id(++next_id_);
  auto session = std::make_shared<Session>(id, now_ms);
  sessions_.emplace(id, session);
  return session;
}

std::shared_ptr<Session> SessionManager::Close(SessionId id) {
  std::shared_ptr<Session> victim;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return nullptr;
    victim = std::move(it->second);
    sessions_.erase(it);
  }
  // Mark closed under the session mutex so an in-flight batch that
  // acquired the pointer before removal observes it. This may wait for
  // that batch to finish — closing is rare and the wait is bounded.
  std::lock_guard<std::mutex> slk(victim->mu);
  victim->closed = true;
  return victim;
}

std::shared_ptr<Session> SessionManager::Find(SessionId id) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<Session>> SessionManager::ReapExpired(
    uint64_t now_ms) {
  std::vector<std::shared_ptr<Session>> dead;
  if (timeout_ms_ == 0) return dead;
  // Watermark early-out: no session's deadline has arrived, so skip the
  // table scan (and the manager lock) entirely. This runs on every
  // request, so it must stay one atomic load in the common case.
  if (now_ms < next_deadline_ms_.load(std::memory_order_relaxed)) {
    return dead;
  }
  std::lock_guard<std::mutex> lk(mu_);
  // With the table empty the next possible deadline is a full timeout
  // away (a session opened right now expires no earlier).
  uint64_t soonest = now_ms + timeout_ms_;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    Session& s = *it->second;
    uint64_t last = s.last_active_ms.load(std::memory_order_relaxed);
    // `now_ms` was read before the manager lock, so a session opened or
    // refreshed since can be newer than it: that session is active.
    if (last >= now_ms || now_ms - last < timeout_ms_) {
      soonest = std::min(soonest, last + timeout_ms_);
      ++it;
      continue;
    }
    // A held mutex means a batch is executing right now: active. Its
    // last_active refresh may race this scan, so re-check immediately on
    // the next call rather than trusting a deadline.
    std::unique_lock<std::mutex> slk(s.mu, std::try_to_lock);
    if (!slk.owns_lock()) {
      soonest = now_ms;
      ++it;
      continue;
    }
    s.closed = true;
    dead.push_back(std::move(it->second));
    it = sessions_.erase(it);
  }
  next_deadline_ms_.store(soonest, std::memory_order_relaxed);
  return dead;
}

std::vector<std::shared_ptr<Session>> SessionManager::TakeAll() {
  std::vector<std::shared_ptr<Session>> all;
  {
    std::lock_guard<std::mutex> lk(mu_);
    all.reserve(sessions_.size());
    for (auto& [id, s] : sessions_) all.push_back(std::move(s));
    sessions_.clear();
  }
  for (auto& s : all) {
    std::lock_guard<std::mutex> slk(s->mu);
    s->closed = true;
  }
  return all;
}

size_t SessionManager::active_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sessions_.size();
}

void SessionManager::ForEach(
    const std::function<void(const Session&)>& fn) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<const Session*> ordered;
  ordered.reserve(sessions_.size());
  for (const auto& [id, s] : sessions_) ordered.push_back(s.get());
  std::sort(ordered.begin(), ordered.end(),
            [](const Session* a, const Session* b) {
              return a->id.value < b->id.value;
            });
  for (const Session* s : ordered) fn(*s);
}

}  // namespace cactis::server

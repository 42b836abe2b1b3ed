#include "txn/version_store.h"

#include <limits>

namespace cactis::txn {

uint64_t VersionStore::Append(TransactionDelta delta) {
  if (position_ < end()) {
    // Truncate the redo tail and every version naming a truncated point.
    for (size_t i = position_ - base_; i < history_.size(); ++i) {
      delta_bytes_ -= history_[i].ByteSize();
    }
    history_.resize(position_ - base_);
    for (auto it = versions_.begin(); it != versions_.end();) {
      if (it->second > position_) {
        it = versions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  delta.commit_seq = base_ + history_.size() + 1;
  delta_bytes_ += delta.ByteSize();
  history_.push_back(std::move(delta));
  end_ = base_ + history_.size();
  position_ = end_;
  return position_;
}

Result<VersionId> VersionStore::CreateVersion(const std::string& name) {
  if (versions_.contains(name)) {
    return Status::AlreadyExists("version '" + name + "' already exists");
  }
  versions_[name] = position_;
  return VersionId(++next_version_);
}

Result<uint64_t> VersionStore::PositionOf(const std::string& name) const {
  auto it = versions_.find(name);
  if (it == versions_.end()) {
    return Status::NotFound("unknown version '" + name + "'");
  }
  return it->second;
}

Result<std::vector<const TransactionDelta*>> VersionStore::DeltasToUndo(
    uint64_t target) const {
  if (target < base_ && target < position_) {
    return Status::OutOfRange(
        "cannot undo past position " + std::to_string(base_) +
        ": older deltas were pruned");
  }
  std::vector<const TransactionDelta*> out;
  for (uint64_t i = position_; i > target; --i) {
    out.push_back(&history_[i - 1 - base_]);
  }
  return out;
}

Result<std::vector<const TransactionDelta*>> VersionStore::DeltasToRedo(
    uint64_t target) const {
  if (position_ < base_) {
    return Status::OutOfRange(
        "position below pruned base: cannot redo");
  }
  std::vector<const TransactionDelta*> out;
  uint64_t stop = target > end() ? end() : target;
  for (uint64_t i = position_; i < stop; ++i) {
    out.push_back(&history_[i - base_]);
  }
  return out;
}

Result<TransactionDelta> VersionStore::PopLast() {
  if (history_.empty()) {
    if (base_ > 0) {
      return Status::OutOfRange(
          "the remaining committed history was pruned and cannot be "
          "undone");
    }
    return Status::NotFound("no committed transaction to undo");
  }
  if (position_ != end()) {
    return Status::InvalidArgument(
        "cannot pop the last transaction while positioned at an old "
        "version; check out the newest state first");
  }
  TransactionDelta delta = std::move(history_.back());
  history_.pop_back();
  delta_bytes_ -= delta.ByteSize();
  end_ = base_ + history_.size();
  position_ = end_;
  for (auto it = versions_.begin(); it != versions_.end();) {
    if (it->second > position_) {
      it = versions_.erase(it);
    } else {
      ++it;
    }
  }
  return delta;
}

uint64_t VersionStore::PruneTo(uint64_t floor) {
  if (floor > position_) floor = position_;
  if (floor > end()) floor = end();
  if (floor <= base_) return 0;
  uint64_t drop = floor - base_;
  for (uint64_t i = 0; i < drop; ++i) delta_bytes_ -= history_[i].ByteSize();
  history_.erase(history_.begin(),
                 history_.begin() + static_cast<ptrdiff_t>(drop));
  base_ = floor;
  pruned_deltas_ += drop;
  return drop;
}

uint64_t VersionStore::OldestNamedPosition() const {
  uint64_t oldest = std::numeric_limits<uint64_t>::max();
  for (const auto& [name, pos] : versions_) {
    (void)name;
    if (pos < oldest) oldest = pos;
  }
  return oldest;
}

void VersionStore::Restore(std::vector<TransactionDelta> history,
                           uint64_t base, uint64_t position,
                           std::map<std::string, uint64_t> versions,
                           uint64_t next_version) {
  history_ = std::move(history);
  base_ = base;
  position_ = position;
  versions_ = std::move(versions);
  next_version_ = next_version;
  end_ = base_ + history_.size();
  uint64_t bytes = 0;
  for (const TransactionDelta& d : history_) bytes += d.ByteSize();
  delta_bytes_ = bytes;
}

std::vector<std::string> VersionStore::VersionNames() const {
  std::vector<std::string> out;
  out.reserve(versions_.size());
  for (const auto& [name, pos] : versions_) {
    (void)pos;
    out.push_back(name);
  }
  return out;
}

}  // namespace cactis::txn

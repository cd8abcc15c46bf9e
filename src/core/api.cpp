// Unified API: SendResult names and the GroupHandle facade.
#include "core/api.h"

#include "core/endpoint.h"

namespace newtop {

const char* to_string(SendResult r) {
  switch (r) {
    case SendResult::kSent: return "sent";
    case SendResult::kQueued: return "queued";
    case SendResult::kNotMember: return "not-member";
    case SendResult::kBackpressure: return "backpressure";
    case SendResult::kTooLarge: return "too-large";
  }
  return "?";
}

SendResult GroupHandle::multicast(util::Bytes payload) {
  if (host_ == nullptr) return SendResult::kNotMember;
  return host_->group_multicast(id_, std::move(payload));
}

void GroupHandle::leave() {
  if (host_ != nullptr) host_->group_leave(id_);
}

std::optional<View> GroupHandle::view() {
  return host_ != nullptr ? host_->group_view(id_) : std::nullopt;
}

RetentionStats GroupHandle::retention_stats() {
  return host_ != nullptr ? host_->group_retention_stats(id_)
                          : RetentionStats{};
}

bool GroupHandle::join(JoinOptions opts) {
  if (host_ == nullptr) return false;
  return host_->group_join(id_, std::move(opts));
}

}  // namespace newtop

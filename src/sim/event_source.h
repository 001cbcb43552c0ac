// EventSource: anything that can be scheduled on the EventList.
#pragma once

#include <string>

namespace mpcc {

class EventSource {
 public:
  explicit EventSource(std::string name) : name_(std::move(name)) {}
  virtual ~EventSource() = default;
  EventSource(const EventSource&) = delete;
  EventSource& operator=(const EventSource&) = delete;

  /// Called by the EventList when this source's scheduled time arrives.
  virtual void do_next_event() = 0;

  const std::string& name() const { return name_; }

  /// Cache hint: the out-of-object memory do_next_event() will miss on
  /// first (a pipe's in-flight front, the hop-array entry of the packet a
  /// queue is serialising), or null. EventList::run_until prefetches it one
  /// dispatch ahead. Plain data, not a virtual call, so reading it costs
  /// one load from a line the loop already prefetched. Only a hint: a stale
  /// value costs a wasted prefetch, never correctness.
  const void* prefetch_hint() const { return prefetch_hint_; }

 protected:
  void set_prefetch_hint(const void* p) { prefetch_hint_ = p; }

 private:
  const void* prefetch_hint_ = nullptr;  // next to the vptr: same line
  std::string name_;
};

}  // namespace mpcc

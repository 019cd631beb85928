#include "sim/event_queue.h"

#include <algorithm>
#include <bit>

#include "sim/stats/stats.h"
#include "util/check.h"

namespace lrs::sim {

namespace {

/// Call-site cache of the queue's registry slots: resolved once per
/// process, recorded through references on the hot path (allocation- and
/// lock-free; every record is gated on stats::enabled()).
struct QueueStats {
  stats::Counter& schedule;
  stats::Counter& cancel;
  stats::Counter& reschedule;
  stats::Counter& deferred_push;
  stats::Counter& pop;
  stats::Counter& overflow;
  stats::Counter& reanchor;
  stats::Histogram& pending;

  static QueueStats& get() {
    static QueueStats s{
        stats::Registry::instance().counter("sim.queue.schedule"),
        stats::Registry::instance().counter("sim.queue.cancel"),
        stats::Registry::instance().counter("sim.queue.reschedule"),
        stats::Registry::instance().counter("sim.queue.deferred_push"),
        stats::Registry::instance().counter("sim.queue.pop"),
        stats::Registry::instance().counter("sim.queue.overflow_push"),
        stats::Registry::instance().counter("sim.queue.reanchor"),
        stats::Registry::instance().histogram("sim.queue.pending"),
    };
    return s;
  }
};

}  // namespace

EventQueue::EventQueue() : heads_(kBuckets, kNil) {}

std::uint32_t EventQueue::acquire_slot() {
  if (free_slot_ != kNil) {
    const std::uint32_t s = free_slot_;
    free_slot_ = slots_[s].next_free;
    return s;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  ++s.gen;
  if (s.gen == 0) ++s.gen;  // generation 0 is reserved for null tokens
  s.next_free = free_slot_;
  free_slot_ = slot;
}

void EventQueue::link(std::size_t b, const Ref& r) {
  std::uint32_t n = free_node_;
  if (n != kNil) {
    free_node_ = nodes_[n].next;
  } else {
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[n] = Node{r, heads_[b]};
  heads_[b] = n;
  set_occupied(b);
}

void EventQueue::push_ref(const Ref& r) {
  const auto after = [](const Ref& a, const Ref& b) { return a.after(b); };
  const SimTime offset = r.time - base_;
  if (offset >= kSpan) {
    QueueStats::get().overflow.add();
    overflow_.push_back(r);
    std::push_heap(overflow_.begin(), overflow_.end(), after);
    return;
  }
  const auto b = static_cast<std::size_t>(offset >> kBucketWidthBits);
  LRS_DCHECK(b < kBuckets);
  if (b == loaded_) {
    heap_.push_back(r);
    std::push_heap(heap_.begin(), heap_.end(), after);
    return;
  }
  // The loaded bucket must stay the first occupied one.
  if (loaded_ != kBuckets && b < loaded_) spill();
  link(b, r);
  if (b < cursor_) cursor_ = b;
}

void EventQueue::push_true_key(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.queued_seq = s.seq;
  push_ref(Ref{s.time, s.seq, slot, s.gen});
}

EventToken EventQueue::schedule_at(SimTime at, EventFn fn) {
  LRS_CHECK_MSG(at >= now_, "cannot schedule events in the past");
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.time = at;
  s.seq = next_seq_++;
  const EventToken token(slot, s.gen);
  push_true_key(slot);
  ++live_;
  QueueStats& qs = QueueStats::get();
  qs.schedule.add();
  qs.pending.record(live_);
  return token;
}

bool EventQueue::cancel(EventToken token) {
  if (!token) return false;
  const std::uint32_t slot = token.slot();
  if (slot >= slots_.size() || slots_[slot].gen != token.gen()) return false;
  release_slot(slot);  // the bucket/overflow ref goes stale and is skipped
  --live_;
  QueueStats::get().cancel.add();
  return true;
}

bool EventQueue::reschedule(EventToken token, SimTime at) {
  if (!token) return false;
  const std::uint32_t slot = token.slot();
  if (slot >= slots_.size() || slots_[slot].gen != token.gen()) return false;
  LRS_CHECK_MSG(at >= now_, "cannot schedule events in the past");
  Slot& s = slots_[slot];
  // A later key keeps the queued carrier (its key is at most the old true
  // key, so it reaches the front first and is re-pushed then); an earlier
  // one needs a carrier of its own.
  const bool earlier = at < s.time;
  s.time = at;
  s.seq = next_seq_++;
  if (earlier) push_true_key(slot);
  QueueStats& qs = QueueStats::get();
  qs.reschedule.add();
  qs.pending.record(live_);  // sampled per arm, as schedule_at does
  return true;
}

std::size_t EventQueue::next_occupied(std::size_t from) const {
  if (from >= kBuckets) return kBuckets;
  std::size_t word = from / 64;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (from % 64));
  while (bits == 0) {
    if (++word >= kBitmapWords) return kBuckets;
    bits = occupied_[word];
  }
  return word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
}

void EventQueue::load(std::size_t b) {
  LRS_DCHECK(loaded_ == kBuckets && heap_.empty());
  std::uint32_t n = heads_[b];
  while (n != kNil) {
    Node& node = nodes_[n];
    if (carries(node.ref)) heap_.push_back(node.ref);
    const std::uint32_t next = node.next;
    node.next = free_node_;
    free_node_ = n;
    n = next;
  }
  heads_[b] = kNil;
  std::make_heap(heap_.begin(), heap_.end(),
                 [](const Ref& a, const Ref& b2) { return a.after(b2); });
  loaded_ = b;
}

void EventQueue::spill() {
  const std::size_t b = loaded_;
  loaded_ = kBuckets;
  for (const Ref& r : heap_) {
    if (carries(r)) link(b, r);
  }
  heap_.clear();
  if (heads_[b] == kNil) clear_occupied(b);
}

bool EventQueue::prune_loaded() {
  const auto after = [](const Ref& a, const Ref& b) { return a.after(b); };
  while (!heap_.empty() && !is_live(heap_.front())) {
    const Ref top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), after);
    heap_.pop_back();
    if (carries(top)) {
      // Moved later since it was queued: its true key lands in this bucket
      // or a later one, never before the cursor.
      QueueStats::get().deferred_push.add();
      push_true_key(top.slot);
    }
  }
  if (heap_.empty()) {
    clear_occupied(loaded_);
    loaded_ = kBuckets;
    return false;
  }
  return true;
}

bool EventQueue::prune_overflow() {
  const auto after = [](const Ref& a, const Ref& b) { return a.after(b); };
  while (!overflow_.empty() && !is_live(overflow_.front())) {
    const Ref top = overflow_.front();
    std::pop_heap(overflow_.begin(), overflow_.end(), after);
    overflow_.pop_back();
    if (carries(top)) {
      // Every overflow ref lies past the horizon (the re-anchor sweep takes
      // all refs inside it), and the true key is later still.
      LRS_DCHECK(slots_[top.slot].time - base_ >= kSpan);
      QueueStats::get().deferred_push.add();
      push_true_key(top.slot);
    }
  }
  return !overflow_.empty();
}

bool EventQueue::find_earliest(SimTime* time) {
  if (live_ == 0) return false;
  for (std::size_t b = next_occupied(cursor_); b < kBuckets;
       b = next_occupied(b + 1)) {
    // Buckets ahead of the first live entry are empty or stale-only, so
    // the cursor can skip them on every later scan.
    cursor_ = b;
    if (loaded_ != b) load(b);
    if (prune_loaded()) {
      *time = heap_.front().time;
      return true;
    }
  }
  cursor_ = kBuckets;
  if (!prune_overflow()) return false;  // unreachable while live_ > 0
  *time = overflow_.front().time;
  return true;
}

EventQueue::Ref EventQueue::pop_earliest() {
  const auto after = [](const Ref& a, const Ref& b) { return a.after(b); };
  if (cursor_ < kBuckets) {
    LRS_DCHECK(loaded_ == cursor_ && !heap_.empty() &&
               is_live(heap_.front()));
    std::pop_heap(heap_.begin(), heap_.end(), after);
    const Ref r = heap_.back();
    heap_.pop_back();
    if (heap_.empty()) {
      clear_occupied(loaded_);
      loaded_ = kBuckets;
    }
    return r;
  }
  // Wheel drained: re-anchor it onto the overflow's earliest event and
  // sweep everything inside the new horizon back into buckets. now_ is
  // advanced to the popped event's time by the caller before any code can
  // schedule again, so base_ <= now() keeps holding.
  LRS_DCHECK(loaded_ == kBuckets);
  LRS_DCHECK(!overflow_.empty() && is_live(overflow_.front()));
  QueueStats::get().reanchor.add();
  const SimTime head = overflow_.front().time;
  base_ = head & ~(kBucketWidth - 1);
  while (!overflow_.empty() && overflow_.front().time - base_ < kSpan) {
    std::pop_heap(overflow_.begin(), overflow_.end(), after);
    const Ref r = overflow_.back();
    overflow_.pop_back();
    if (carries(r)) push_ref(r);
  }
  SimTime t;
  const bool found = find_earliest(&t);
  LRS_DCHECK(found);
  (void)found;
  return pop_earliest();
}

void EventQueue::run_ref(const Ref& r) {
  now_ = r.time;
  // Move the closure out and release the slot first, so the event body can
  // freely reschedule (possibly into this very slot) and cancelling its
  // own, now stale, token is a no-op.
  EventFn fn = std::move(slots_[r.slot].fn);
  release_slot(r.slot);
  --live_;
  ++executed_;
  QueueStats::get().pop.add();
  fn();
}

bool EventQueue::run_next() {
  SimTime t;
  if (!find_earliest(&t)) return false;
  run_ref(pop_earliest());
  return true;
}

bool EventQueue::run_next_before(SimTime limit) {
  SimTime t;
  if (!find_earliest(&t) || t > limit) return false;
  run_ref(pop_earliest());
  return true;
}

std::optional<SimTime> EventQueue::peek_time() {
  SimTime t;
  if (!find_earliest(&t)) return std::nullopt;
  return t;
}

std::uint64_t EventQueue::run_until(SimTime limit) {
  std::uint64_t count = 0;
  while (run_next_before(limit)) ++count;
  if (live_ == 0 && now_ < limit) now_ = limit;
  return count;
}

}  // namespace lrs::sim

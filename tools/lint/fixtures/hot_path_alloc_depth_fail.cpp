// Fixture: MUST FAIL the hot-path-alloc rule.
//
// The allocation sits two calls below the root Node::release_outbox but
// four below the root Node::deliver. A traversal that expands
// Node::deliver first reaches schedule_at() three calls deep, at the depth
// limit; if it then treats schedule_at() as done, the shorter path from
// release_outbox never expands it and the allocation goes unseen. Each
// function must be expanded at its smallest depth from any root.
#include <memory>
#include <vector>

namespace dnsguard {

struct Node {
  void release_outbox(long at);
  void deliver(long packet);
};

std::vector<std::unique_ptr<long[]>> event_chunks;

void grow_event_chunks() {
  event_chunks.push_back(std::make_unique<long[]>(64));
}

void schedule_at(long at) {
  if (at < 0) grow_event_chunks();
}

void wake_lane(long lane) { schedule_at(lane); }

void enqueue_arrival(long packet) { wake_lane(packet); }

void Node::release_outbox(long at) { schedule_at(at); }

// Defined last, so a depth-first walk of the roots expands it first.
void Node::deliver(long packet) { enqueue_arrival(packet); }

}  // namespace dnsguard

// Fixture: MUST FAIL the hot-path-alloc rule.
//
// EventQueue::pop is a registered hot-path root defined inside its class
// body, as header-only classes define their members. The rule must match
// it as "EventQueue::pop", exactly like an out-of-class definition, and
// flag the growth inside it.
#include <vector>

namespace dnsguard {

class EventQueue {
 public:
  void pop() { free_.push_back(next_++); }

 private:
  std::vector<int> free_;
  int next_ = 0;
};

}  // namespace dnsguard

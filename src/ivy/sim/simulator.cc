#include "ivy/sim/simulator.h"

namespace ivy::sim {

Simulator::~Simulator() {
  for (const Key& key : heap_) {
    Slot& s = slots_.at(key.slot);
    s.finish(s.storage, /*run=*/false);
  }
}

bool Simulator::cancel(Timer timer) {
  if (timer.slot >= slot_count_) return false;
  Slot& s = slots_.at(timer.slot);
  if (s.heap_pos == kNone || heap_[s.heap_pos].seq != timer.seq) {
    return false;
  }
  erase_key(s.heap_pos);
  s.finish(s.storage, /*run=*/false);
  release_slot(timer.slot);
  return true;
}

}  // namespace ivy::sim

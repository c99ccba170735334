#include "temporal/time_mask.h"

#include "temporal/interval_set.h"

namespace tgks::temporal {

TimeMask TimeMask::FromIntervalSet(const IntervalSet& set) {
  TimeMask m;
  for (const Interval& iv : set.intervals()) m |= Of(iv);
  return m;
}

IntervalSet TimeMask::ToIntervalSet() const {
  IntervalSet out;
  out.AssignFromMask(*this);
  return out;
}

std::string TimeMask::ToString() const { return ToIntervalSet().ToString(); }

std::ostream& operator<<(std::ostream& os, const TimeMask& mask) {
  return os << mask.ToString();
}

}  // namespace tgks::temporal

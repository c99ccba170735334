#include "obs/search_stats.h"

#include <sstream>

namespace tgks::obs {

std::string SearchStats::ToString() const {
  std::ostringstream os;
  os << "prunes=" << prunes << " interval_ops=" << interval_ops
     << " heap_high_water=" << heap_high_water;
  return os.str();
}

}  // namespace tgks::obs

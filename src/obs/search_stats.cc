#include "obs/search_stats.h"

#include <sstream>

namespace tgks::obs {

std::string SearchStats::ToString() const {
  std::ostringstream os;
  os << "pops=" << pops << " ntds_created=" << ntds_created
     << " ntds_merged=" << ntds_merged << " dedup_hits=" << dedup_hits
     << " prunes=" << prunes
     << " edges_scanned=" << edges_scanned
     << " interval_ops=" << interval_ops
     << " heap_high_water=" << heap_high_water << " micros_match="
     << micros_match << " micros_filter=" << micros_filter
     << " micros_expand=" << micros_expand
     << " micros_generate=" << micros_generate
     << " micros_total=" << MicrosTotal();
  return os.str();
}

bool StatsCompiledOut() {
#ifdef TGKS_NO_STATS
  return true;
#else
  return false;
#endif
}

}  // namespace tgks::obs

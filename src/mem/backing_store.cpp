#include "mem/backing_store.hpp"

#include <algorithm>

namespace suvtm::mem {

void BackingStore::copy_line(LineAddr src_line, LineAddr dst_line) {
  if (src_line == dst_line) return;
  const Addr src = addr_of_line(src_line);
  const Addr dst = addr_of_line(dst_line);
  // One lookup per side instead of one per word. Take the source pointer
  // first: creating the destination page may grow the map, but the source
  // Page itself lives on the heap and stays put.
  const Page* sp = pages_.find(page_of(src));
  Page& dp = pages_.get(page_of(dst));
  std::uint64_t* d = dp.data() + (dst % kPageBytes) / kWordBytes;
  if (!sp) {
    std::fill_n(d, kWordsPerLine, 0);
    return;
  }
  const std::uint64_t* s = sp->data() + (src % kPageBytes) / kWordBytes;
  std::copy_n(s, kWordsPerLine, d);
}

}  // namespace suvtm::mem

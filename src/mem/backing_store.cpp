#include "mem/backing_store.hpp"

#include <algorithm>

namespace suvtm::mem {

void BackingStore::copy_line(LineAddr src_line, LineAddr dst_line) {
  if (src_line == dst_line) return;
  // Take the source pointer first: creating the destination may grow a
  // map, but line and page payloads live on the heap and stay put.
  const std::uint64_t* s = find_line(src_line);
  std::uint64_t* d = get_line(dst_line);
  if (!s) {
    std::fill_n(d, kWordsPerLine, 0);
    return;
  }
  std::copy_n(s, kWordsPerLine, d);
}

}  // namespace suvtm::mem

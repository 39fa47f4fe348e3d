#include "util/huge_page_allocator.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>

namespace timpp {

namespace {

size_t PageBytes() {
  static const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

// `to` is a power of two.
uintptr_t RoundUp(uintptr_t x, size_t to) { return (x + to - 1) & ~(to - 1); }

bool Mapped(size_t bytes) {
  return kLargeArraysMapped && bytes >= kHugePageBytes;
}

}  // namespace

void* AllocateArrayBytes(size_t bytes) {
  if (!Mapped(bytes)) return ::operator new(bytes);
  if (bytes > std::numeric_limits<size_t>::max() - 2 * kHugePageBytes) {
    throw std::bad_alloc();
  }
  const size_t length = RoundUp(bytes, PageBytes());
  // The kernel returns a page-aligned start, so a span one huge page less
  // one page longer than `length` holds a huge-page-aligned run of
  // `length` bytes; the slack before and after it is unmapped again.
  const size_t span = length + kHugePageBytes - PageBytes();
  void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const uintptr_t begin = reinterpret_cast<uintptr_t>(raw);
  const uintptr_t start = RoundUp(begin, kHugePageBytes);
  const uintptr_t end = start + length;
  if (start != begin) ::munmap(raw, start - begin);
  if (end != begin + span) {
    ::munmap(reinterpret_cast<void*>(end), begin + span - end);
  }
  (void)::madvise(reinterpret_cast<void*>(start), length, MADV_HUGEPAGE);
  return reinterpret_cast<void*>(start);
}

void FreeArrayBytes(void* p, size_t bytes) noexcept {
  if (!Mapped(bytes)) {
    ::operator delete(p, bytes);
    return;
  }
  ::munmap(p, RoundUp(bytes, PageBytes()));
}

}  // namespace timpp

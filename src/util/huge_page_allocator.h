// Allocator for large flat arrays (the RR collection's set and index
// arrays): an array of at least 2 MiB gets an anonymous mapping of its
// own, starting on a 2 MiB boundary and advised MADV_HUGEPAGE, so the
// kernel can back it with transparent huge pages. A cold array then
// first-touches its memory 2 MiB at a time instead of 4 KiB at a time,
// and a freed array goes back to the OS at once (munmap) instead of
// staying in the heap. Smaller arrays, and every array in an
// AddressSanitizer build (so ASan keeps its redzones around them), come
// from operator new.
#ifndef TIMPP_UTIL_HUGE_PAGE_ALLOCATOR_H_
#define TIMPP_UTIL_HUGE_PAGE_ALLOCATOR_H_

#include <cstddef>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define TIMPP_ADDRESS_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TIMPP_ADDRESS_SANITIZER 1
#endif
#endif

namespace timpp {

/// An array of at least this many bytes gets its own mapping, aligned to
/// it (the x86-64 and arm64 4 KiB-granule huge-page size).
inline constexpr size_t kHugePageBytes = size_t{1} << 21;

/// Whether arrays of kHugePageBytes or more get their own mapping: false
/// in AddressSanitizer builds, where every array stays on the heap.
#ifdef TIMPP_ADDRESS_SANITIZER
inline constexpr bool kLargeArraysMapped = false;
#else
inline constexpr bool kLargeArraysMapped = true;
#endif

/// `bytes` of uninitialized storage aligned for any scalar type; throws
/// std::bad_alloc when it cannot be had. With kLargeArraysMapped and
/// `bytes` >= kHugePageBytes: a private anonymous mapping of `bytes`
/// rounded up to whole pages, starting on a kHugePageBytes boundary,
/// advised MADV_HUGEPAGE (an error, e.g. transparent huge pages being off,
/// is ignored: the mapping then keeps 4 KiB pages). Otherwise operator new.
void* AllocateArrayBytes(size_t bytes);

/// Frees storage that AllocateArrayBytes(bytes) returned; `bytes` must be
/// the same value. A mapping is unmapped.
void FreeArrayBytes(void* p, size_t bytes) noexcept;

/// Stateless std::allocator stand-in over AllocateArrayBytes: every
/// instance equals every other, so containers move and swap storage
/// freely.
///
/// construct() without arguments default-initializes a trivially
/// default-constructible type, so `resize(n)` leaves the new slots
/// unwritten (and untouched, so no page is faulted in) for whoever writes
/// them. A caller may therefore grow such a vector by `resize` only when
/// it writes every new slot before reading it. In RRCollection the only
/// growing resizes are BuildIndex's index_offsets_ and index_sets_, and
/// BuildIndex writes both in full.
template <typename T>
class HugePageAllocator {
 public:
  using value_type = T;
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "operator new and page-aligned mappings align T");

  HugePageAllocator() noexcept = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    if (n > std::numeric_limits<size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    return static_cast<T*>(AllocateArrayBytes(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) noexcept {
    FreeArrayBytes(p, n * sizeof(T));
  }

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    if constexpr (std::is_trivially_default_constructible_v<U>) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U();
    }
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const HugePageAllocator&,
                         const HugePageAllocator&) noexcept {
    return true;
  }
};

}  // namespace timpp

#endif  // TIMPP_UTIL_HUGE_PAGE_ALLOCATOR_H_

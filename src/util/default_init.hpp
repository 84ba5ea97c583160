// Default-initializing allocator for buffers a chunked fill overwrites in
// full.
//
// std::vector<T>::resize(n) value-initializes the new elements: for a
// trivial T that is a serial memset, which also takes every page fault of a
// fresh allocation on the calling thread. With DefaultInitAllocator the new
// elements are default-initialized instead — left unwritten for a trivially
// default-constructible T — so the first touch of each page happens in the
// loop that fills it, chunk by chunk on the executor's threads. A buffer
// may use it only when such a fill writes every entry before any is read
// (docs/ARCHITECTURE.md "Executor"); serial scatter fills keep zeroing.
#pragma once

#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace dec {

template <class T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  using value_type = T;
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() = default;
  template <class U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  /// resize()/the sized constructor: default-initialize.
  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  /// Every other construction (push_back, assign, copies) as usual.
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A vector whose resize() leaves new trivial elements unwritten.
template <class T>
using DefaultInitVector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace dec

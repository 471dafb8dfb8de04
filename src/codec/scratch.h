// Codec scratch buffers that are not zero-filled when sized.
//
// The vector form of std::make_unique_for_overwrite (RefPlanes' idiom):
// resize() default-initializes, so trivially constructible elements are
// left unwritten instead of being value-initialized. Use it only for a
// buffer whose every read is preceded by a write of the same element;
// DESIGN §7 lists each such buffer and why that holds. These stay
// per-call scratch (DESIGN §11 memory rule), never per-encoder state.
#pragma once

#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace dive::codec {

/// std::allocator whose argument-less construct() default-initializes.
template <class T>
struct OverwriteAllocator : std::allocator<T> {
  using value_type = T;
  template <class U>
  struct rebind {
    using other = OverwriteAllocator<U>;
  };

  OverwriteAllocator() = default;
  template <class U>
  OverwriteAllocator(const OverwriteAllocator<U>&) noexcept {}  // rebinding

  /// Default-initializes. Construction with arguments is not declared,
  /// so std::allocator_traits falls back to std::construct_at for it.
  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
};

/// A vector whose resize() leaves new trivially constructible elements
/// unwritten.
template <class T>
using ScratchVector = std::vector<T, OverwriteAllocator<T>>;

}  // namespace dive::codec

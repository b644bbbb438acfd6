// In-memory message representation for the simulated machine.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace chaos::sim {

/// std::allocator whose value-less construct default-initializes, so
/// growing a vector of bytes leaves the new bytes uninitialized instead of
/// zeroing them — a wire buffer is always overwritten by its pack kernel.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  using std::allocator<T>::allocator;

  // Construction with arguments falls through to std::construct_at.
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
};

/// A message's bytes. Moved, never copied, from the sender's pack through
/// the mailbox to the receiver's unpack.
using Payload = std::vector<std::byte, DefaultInitAllocator<std::byte>>;

/// A point-to-point message in flight. `arrival` is the virtual time at
/// which the payload becomes available at the receiver (sender departure
/// time plus modeled transfer time).
struct Message {
  int src = -1;
  int tag = 0;
  double arrival = 0.0;
  Payload payload;
};

}  // namespace chaos::sim

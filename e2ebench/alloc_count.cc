#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace e2ebench {
namespace {

constexpr std::size_t kSlots = 64;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
};

std::atomic<bool> g_enabled{false};
Slot g_slots[kSlots];
std::atomic<std::size_t> g_next_slot{0};

std::size_t ThisThreadSlot() {
  thread_local const std::size_t slot =
      g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
  return slot;
}

void Count() {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  g_slots[ThisThreadSlot()].count.fetch_add(1, std::memory_order_relaxed);
}

void* Allocate(std::size_t size) {
  Count();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  Count();
  const std::size_t alignment = static_cast<std::size_t>(align);
  void* p = nullptr;
  if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void EnableAllocCounting(bool on) {
  g_enabled.store(on, std::memory_order_seq_cst);
}

std::uint64_t AllocCount() {
  std::uint64_t total = 0;
  for (const Slot& slot : g_slots) {
    total += slot.count.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace e2ebench

// Replacement global allocation functions: every form routes through the
// counters above. Deallocation is plain `free` for all of them.
void* operator new(std::size_t size) { return e2ebench::Allocate(size); }
void* operator new[](std::size_t size) { return e2ebench::Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return e2ebench::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return e2ebench::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return e2ebench::AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return e2ebench::AllocateAligned(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return e2ebench::AllocateAligned(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return e2ebench::AllocateAligned(size, align);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

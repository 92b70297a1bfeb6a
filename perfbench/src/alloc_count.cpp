// Replaces the global allocation functions to count every operator new
// call of the process (runtime.host_allocs) while counting is on. It is on
// only in traced runs, so the end-to-end figures of untraced runs pay no
// atomic add per allocation. Kept in its own translation unit so callers
// never see the replacement inlined.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "alloc_count.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
bool g_counting = false;

void* counted(std::size_t size, std::size_t alignment) {
  if (g_counting) g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = alignment <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(alignment,
                                     (size + alignment - 1) & ~(alignment - 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

namespace perfbench {
void count_allocations(bool on) { g_counting = on; }

std::uint64_t allocation_count() {
  return g_allocs.load(std::memory_order_relaxed);
}
}  // namespace perfbench

void* operator new(std::size_t size) {
  return counted(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted(size, alignof(std::max_align_t));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return counted(size, static_cast<std::size_t>(align));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return operator new(size, align, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

// Heap-allocation counter: replaces the global operator new/delete of the
// benchmark binary (the library is linked in unchanged) and counts every
// allocation with one relaxed atomic increment.
#include <atomic>
#include <cstdlib>
#include <new>

#include "harness.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  if (n == 0) n = 1;
  n = (n + a - 1) / a * a;  // aligned_alloc wants a multiple
  void* p = std::aligned_alloc(a, n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perfbench {
std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}
}  // namespace perfbench

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
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

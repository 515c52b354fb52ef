#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
thread_local std::uint64_t t_allocs = 0;

void count_one() {
  ++t_allocs;
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

void* checked(void* p) {
  if (p == nullptr) {
    throw std::bad_alloc{};
  }
  return p;
}

}  // namespace

namespace perfbench {

std::uint64_t thread_allocs() { return t_allocs; }

std::uint64_t global_allocs() {
  return g_allocs.load(std::memory_order_relaxed);
}

void set_global_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

}  // namespace perfbench

// The array and nothrow forms forward to these in libstdc++; the aligned
// forms do not, so they are replaced too.
void* operator new(std::size_t size) {
  count_one();
  return checked(std::malloc(size == 0 ? 1 : size));
}

void* operator new(std::size_t size, std::align_val_t align) {
  count_one();
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  return checked(std::aligned_alloc(a, rounded == 0 ? a : rounded));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

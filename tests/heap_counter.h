// Global operator new/delete replacements that count heap allocations, for
// the suites that assert a zero-allocation steady state: read g_heap_allocs
// before and after the loop under test. Replacement allocation functions
// must be defined once per program, so include this from exactly one
// translation unit of a test binary (each suite is one file).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

// Every delete releases through this one out-of-line function: a delete
// inlined into a caller of this file would otherwise show GCC a free() of
// operator new's pointer and trip -Wmismatched-new-delete.
[[gnu::noinline]] void heap_counter_free(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) !=
      0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// The nothrow forms (std::get_temporary_buffer, under std::stable_sort and
// friends, allocates through them) count too, and return null on failure.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) !=
      0) {
    return nullptr;
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return ::operator new(size, align, tag);
}

void operator delete(void* p) noexcept { heap_counter_free(p); }
void operator delete[](void* p) noexcept { heap_counter_free(p); }
void operator delete(void* p, std::size_t) noexcept { heap_counter_free(p); }
void operator delete[](void* p, std::size_t) noexcept {
  heap_counter_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  heap_counter_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  heap_counter_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  heap_counter_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  heap_counter_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  heap_counter_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  heap_counter_free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  heap_counter_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  heap_counter_free(p);
}

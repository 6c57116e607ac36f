// A warm `run` request allocates no heap block.  The pooled machine keeps
// the request's buffers and scratch, the registry keeps the program's ops,
// and the reference models write into a reused row; this suite counts
// every global operator new to hold that.  The counting allocator replaces
// the process-wide operator new, so the suite is its own executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "serve/request.hpp"
#include "serve/server.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

// Every unaligned form, so that each block is freed by the family that
// allocated it (a sanitizer build replaces the ones left out).
void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace pimecc {
namespace {

serve::Request run_request(const std::string& circuit, std::uint64_t seed) {
  serve::Request request;
  std::string error;
  const std::string line =
      "run circuit=" + circuit + " n=1020 m=15 seed=" + std::to_string(seed);
  EXPECT_TRUE(serve::parse_request(line, request, error)) << error;
  return request;
}

TEST(ServeAllocations, WarmRunRequestAllocatesNoHeapBlock) {
  // The run_n1020 mix: after one round per circuit has sized the lease's
  // buffers, the next rounds (new seeds, same lease) allocate nothing.
  serve::Server server;
  std::vector<serve::Request> warm;
  std::vector<serve::Request> timed;
  for (const char* circuit : {"ctrl", "int2float", "cavlc", "dec", "priority"}) {
    warm.push_back(run_request(circuit, 1));
    for (std::uint64_t seed = 2; seed < 4; ++seed) {
      timed.push_back(run_request(circuit, seed));
    }
  }
  for (const serve::Request& request : warm) {
    const serve::Response response = server.execute(request);
    ASSERT_TRUE(response.ok) << response.error;
  }
  for (const serve::Request& request : timed) {
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    const serve::Response response = server.execute(request);
    const std::size_t allocated =
        g_allocations.load(std::memory_order_relaxed) - before;
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.mismatches, 0u) << request.circuit;
    EXPECT_EQ(allocated, 0u) << request.circuit << " seed " << request.seed;
  }
}

TEST(ServeAllocations, CounterSeesAllocations) {
  // The counting allocator is live: one operator new call, one count.
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  void* volatile block = ::operator new(64);
  ::operator delete(block);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 1u);
}

}  // namespace
}  // namespace pimecc

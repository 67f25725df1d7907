#include "lci/region_book.hpp"

#include <mutex>

namespace lcr::lci {

bool RegionBook::add(std::uint64_t token, std::byte* base, std::size_t size,
                     std::uint32_t generation, CompletionCounter* counter) {
  std::lock_guard<rt::Spinlock> guard(lock_);
  Entry e;
  e.base = base;
  e.size = size;
  e.generation = generation;
  e.counter = counter;
  return entries_.emplace(token, e).second;
}

bool RegionBook::remove(std::uint64_t token) {
  std::lock_guard<rt::Spinlock> guard(lock_);
  return entries_.erase(token) != 0;
}

bool RegionBook::lookup(std::uint64_t token, Entry& out) const {
  std::lock_guard<rt::Spinlock> guard(lock_);
  const auto it = entries_.find(token);
  if (it == entries_.end()) return false;
  out = it->second;
  return true;
}

RegionBook::Verdict RegionBook::note_put(std::uint64_t token,
                                         std::size_t offset,
                                         std::size_t bytes,
                                         std::uint32_t generation) {
  CompletionCounter* counter = nullptr;
  Verdict v = Verdict::Ok;
  {
    std::lock_guard<rt::Spinlock> guard(lock_);
    const auto it = entries_.find(token);
    if (it == entries_.end()) {
      v = Verdict::UnknownToken;
    } else if (it->second.generation != generation) {
      v = Verdict::StaleGeneration;
    } else if (offset > it->second.size ||
               bytes > it->second.size - offset) {
      v = Verdict::OutOfBounds;
    } else {
      counter = it->second.counter;
    }
  }
  if (v == Verdict::Ok) {
    accepted_.fetch_add(1, std::memory_order_relaxed);
    if (counter != nullptr) counter->signal();
  } else {
    rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  return v;
}

std::size_t RegionBook::live() const {
  std::lock_guard<rt::Spinlock> guard(lock_);
  return entries_.size();
}

}  // namespace lcr::lci

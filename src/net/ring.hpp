// A FIFO ring over one power-of-two array: the packet store of a switch
// service queue and the schedulers' queue lists (DESIGN.md §9). Unlike
// std::deque it allocates nothing until the first push and keeps its
// capacity afterwards, so a port in steady state never touches the heap,
// and size() is a single load. Elements are constructed on push and simply
// abandoned on pop, which is why T must be trivially destructible.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <iterator>
#include <memory>
#include <type_traits>
#include <utility>

namespace dynaq::net {

template <typename T>
class Ring {
  static_assert(std::is_trivially_destructible_v<T>, "Ring never runs element destructors");

 public:
  class ConstIterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    ConstIterator() = default;
    reference operator*() const { return ring_->at(pos_); }
    ConstIterator& operator++() {
      ++pos_;
      return *this;
    }
    ConstIterator operator++(int) {
      ConstIterator old = *this;
      ++pos_;
      return old;
    }
    bool operator==(const ConstIterator& other) const { return pos_ == other.pos_; }

   private:
    friend class Ring;
    ConstIterator(const Ring* ring, std::size_t pos) : ring_(ring), pos_(pos) {}
    const Ring* ring_ = nullptr;
    std::size_t pos_ = 0;  // distance from the head
  };

  Ring() = default;
  ~Ring() { release(); }

  Ring(const Ring& other) {
    if (other.size_ == 0) return;
    const std::size_t capacity = std::bit_ceil(std::max(other.size_, kMinCapacity));
    slots_ = std::allocator<T>().allocate(capacity);
    capacity_ = capacity;
    for (std::size_t i = 0; i < other.size_; ++i) std::construct_at(slots_ + i, other.at(i));
    size_ = other.size_;
  }
  Ring(Ring&& other) noexcept
      : slots_(std::exchange(other.slots_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  Ring& operator=(Ring other) noexcept {
    std::swap(slots_, other.slots_);
    std::swap(capacity_, other.capacity_);
    std::swap(head_, other.head_);
    std::swap(size_, other.size_);
    return *this;
  }

  void push_back(const T& value) { append(value); }
  void push_back(T&& value) { append(std::move(value)); }

  void pop_front() {
    assert(size_ > 0);
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }
  void pop_back() {
    assert(size_ > 0);
    --size_;
  }

  T& front() { return at(0); }
  const T& front() const { return at(0); }
  T& back() { return at(size_ - 1); }
  const T& back() const { return at(size_ - 1); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // Slots allocated: 0 until the first push, then a power of two that only grows.
  std::size_t capacity() const { return capacity_; }

  ConstIterator begin() const { return {this, 0}; }
  ConstIterator end() const { return {this, size_}; }

 private:
  static constexpr std::size_t kMinCapacity = 8;

  T& at(std::size_t i) {
    assert(i < size_);
    return slots_[(head_ + i) & (capacity_ - 1)];
  }
  const T& at(std::size_t i) const {
    assert(i < size_);
    return slots_[(head_ + i) & (capacity_ - 1)];
  }

  template <typename U>
  void append(U&& value) {
    if (size_ < capacity_) {
      std::construct_at(slots_ + ((head_ + size_) & (capacity_ - 1)), std::forward<U>(value));
    } else {
      grow_and_append(std::forward<U>(value));
    }
    ++size_;
  }

  // Doubles the array, unrolling the ring to start at slot 0. The new
  // element is built first: `value` may refer into the old array.
  template <typename U>
  void grow_and_append(U&& value) {
    const std::size_t capacity = capacity_ == 0 ? kMinCapacity : 2 * capacity_;
    T* const slots = std::allocator<T>().allocate(capacity);
    std::construct_at(slots + size_, std::forward<U>(value));
    for (std::size_t i = 0; i < size_; ++i) std::construct_at(slots + i, std::move(at(i)));
    release();
    slots_ = slots;
    capacity_ = capacity;
    head_ = 0;
  }

  void release() {
    if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, capacity_);
  }

  T* slots_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dynaq::net

// SmallVector<T, N>: a vector with inline storage for the first N elements.
//
// DNS messages carry 1-3 records per section and the name compressor keeps
// a few dozen offsets; std::vector heap-allocates for every one of them.
// SmallVector keeps the common small case entirely inside the owning object
// (zero allocations) and degrades to a heap buffer with geometric growth
// past N.
//
// The API is the std::vector subset the dns/ layer uses, plus
// implicit conversions from std::vector so call sites that still produce
// vectors (zone lookups, test fixtures) interoperate without churn.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace mecdns::util {

template <typename T, std::size_t N>
class SmallVector {
 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;
  using size_type = std::size_t;

  SmallVector() = default;

  SmallVector(std::initializer_list<T> init) { assign(init.begin(), init.end()); }

  template <typename It,
            typename = typename std::iterator_traits<It>::iterator_category>
  SmallVector(It first, It last) {
    assign(first, last);
  }

  SmallVector(const SmallVector& other) { assign(other.begin(), other.end()); }

  SmallVector(SmallVector&& other) noexcept { steal_from(std::move(other)); }

  // Implicit bridges from std::vector keep zone/test call sites unchanged.
  SmallVector(const std::vector<T>& v) { assign(v.begin(), v.end()); }
  SmallVector(std::vector<T>&& v) { move_assign_range(v.data(), v.size()); }

  ~SmallVector() { destroy_all(); }

  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) {
      clear();
      assign(other.begin(), other.end());
    }
    return *this;
  }

  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      destroy_all();
      steal_from(std::move(other));
    }
    return *this;
  }

  SmallVector& operator=(const std::vector<T>& v) {
    clear();
    assign(v.begin(), v.end());
    return *this;
  }

  SmallVector& operator=(std::vector<T>&& v) {
    clear();
    move_assign_range(v.data(), v.size());
    return *this;
  }

  SmallVector& operator=(std::initializer_list<T> init) {
    clear();
    assign(init.begin(), init.end());
    return *this;
  }

  bool empty() const { return size_ == 0; }
  size_type size() const { return size_; }
  size_type capacity() const { return capacity_; }

  T* data() { return data_; }
  const T* data() const { return data_; }

  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }
  const_iterator cbegin() const { return data_; }
  const_iterator cend() const { return data_ + size_; }

  T& operator[](size_type i) { return data_[i]; }
  const T& operator[](size_type i) const { return data_[i]; }
  T& front() { return data_[0]; }
  const T& front() const { return data_[0]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  void reserve(size_type n) {
    if (n > capacity_) grow_to(n);
  }

  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) grow_to(capacity_ * 2);
    T* slot = data_ + size_;
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_back() {
    --size_;
    data_[size_].~T();
  }

  void clear() {
    for (size_type i = 0; i < size_; ++i) data_[i].~T();
    size_ = 0;
  }

  /// Appends [first, last) at the end (the only insert position the dns
  /// layer uses); returns an iterator to the first appended element.
  template <typename It>
  iterator insert(const_iterator pos, It first, It last) {
    const size_type at = static_cast<size_type>(pos - data_);
    const size_type count = static_cast<size_type>(std::distance(first, last));
    if (size_ + count > capacity_) grow_to(size_ + count);
    // Shift the tail up (back to front) to make room, then copy in.
    for (size_type i = size_; i > at; --i) {
      if (i + count - 1 >= size_) {
        ::new (static_cast<void*>(data_ + i + count - 1))
            T(std::move(data_[i - 1]));
      } else {
        data_[i + count - 1] = std::move(data_[i - 1]);
      }
      data_[i - 1].~T();
    }
    size_type i = at;
    for (It it = first; it != last; ++it, ++i) {
      ::new (static_cast<void*>(data_ + i)) T(*it);
    }
    size_ += count;
    return data_ + at;
  }

  iterator erase(const_iterator pos) {
    const size_type at = static_cast<size_type>(pos - data_);
    for (size_type i = at; i + 1 < size_; ++i) data_[i] = std::move(data_[i + 1]);
    pop_back();
    return data_ + at;
  }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator!=(const SmallVector& a, const SmallVector& b) {
    return !(a == b);
  }

 private:
  T* inline_slot(std::size_t i) {
    return std::launder(reinterpret_cast<T*>(inline_storage_)) + i;
  }

  bool on_heap() const { return data_ != const_cast<T*>(inline_begin()); }
  const T* inline_begin() const {
    return std::launder(reinterpret_cast<const T*>(inline_storage_));
  }

  template <typename It>
  void assign(It first, It last) {
    const size_type count = static_cast<size_type>(std::distance(first, last));
    if (count > capacity_) grow_to(count);
    size_type i = 0;
    for (It it = first; it != last; ++it, ++i) {
      ::new (static_cast<void*>(data_ + i)) T(*it);
    }
    size_ = count;
  }

  void move_assign_range(T* src, size_type count) {
    if (count > capacity_) grow_to(count);
    for (size_type i = 0; i < count; ++i) {
      ::new (static_cast<void*>(data_ + i)) T(std::move(src[i]));
    }
    size_ = count;
  }

  void steal_from(SmallVector&& other) noexcept {
    if (other.on_heap()) {
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = other.inline_slot(0);
      other.size_ = 0;
      other.capacity_ = N;
    } else {
      data_ = inline_slot(0);
      capacity_ = N;
      size_ = other.size_;
      for (size_type i = 0; i < size_; ++i) {
        ::new (static_cast<void*>(data_ + i)) T(std::move(other.data_[i]));
        other.data_[i].~T();
      }
      other.size_ = 0;
    }
  }

  void grow_to(size_type wanted) {
    size_type next = capacity_ * 2;
    if (next < wanted) next = wanted;
    T* fresh = static_cast<T*>(::operator new(next * sizeof(T)));
    for (size_type i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(fresh + i)) T(std::move(data_[i]));
      data_[i].~T();
    }
    if (on_heap()) ::operator delete(data_);
    data_ = fresh;
    capacity_ = next;
  }

  void destroy_all() {
    clear();
    if (on_heap()) ::operator delete(data_);
  }

  alignas(T) unsigned char inline_storage_[N * sizeof(T)];
  T* data_ = std::launder(reinterpret_cast<T*>(inline_storage_));
  size_type size_ = 0;
  size_type capacity_ = N;
};

}  // namespace mecdns::util

// InlineFunction: a move-only std::function replacement with a fixed-size
// inline buffer.
//
// The simulator runs ~21 events per DNS query; std::function's small-buffer
// optimization (16-32 bytes, libstdc++/libc++ dependent) is too small for
// the lambdas the dns/simnet layers capture (a Packet, a TraceToken, a
// couple of values), so nearly every schedule_at would heap-allocate.
// InlineFunction<void(), 192> stores callables up to 192 bytes in place;
// larger ones fall back to a single heap node. Move-only semantics let
// callbacks own Packets/Messages without the copyability tax std::function
// imposes, and emplace() builds a callable straight into an existing
// object, which is how the event queue fills its slots without a move.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace mecdns::util {

template <typename Signature, std::size_t Capacity = 192>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  InlineFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {
    construct(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { take(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  /// Replaces the target with `f`, built directly in this object's buffer
  /// (another InlineFunction is relocated, as by move assignment).
  template <typename F>
  void emplace(F&& f) {
    if constexpr (std::is_same_v<std::decay_t<F>, InlineFunction>) {
      *this = std::move(f);
    } else {
      reset();
      construct(std::forward<F>(f));
    }
  }

  /// Destroys the target, if any. The object is empty before the target's
  /// destructor runs, so that destructor may safely reach this object.
  void reset() noexcept {
    if (const Ops* ops = ops_) {
      ops_ = nullptr;
      ops->destroy(buffer_);
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->invoke(buffer_, std::forward<Args>(args)...);
  }

 private:
  template <typename F>
  void construct(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= Capacity && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buffer_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      // Too big (or too aligned) for the buffer: one heap node holding the
      // callable, with the pointer stored inline.
      Fn* heap = new Fn(std::forward<F>(f));
      ::new (static_cast<void*>(buffer_)) Fn*(heap);
      ops_ = &heap_ops<Fn>;
    }
  }

  void take(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_) {
      ops_->move_destroy(other.buffer_, buffer_);
      other.ops_ = nullptr;
    }
  }

  struct Ops {
    R (*invoke)(unsigned char*, Args&&...);
    void (*move_destroy)(unsigned char* from, unsigned char* to);
    void (*destroy)(unsigned char*);
  };

  template <typename Fn>
  static Fn* as(unsigned char* buf) {
    return std::launder(reinterpret_cast<Fn*>(buf));
  }

  template <typename Fn>
  static constexpr Ops inline_ops = {
      // invoke
      [](unsigned char* buf, Args&&... args) -> R {
        return (*as<Fn>(buf))(std::forward<Args>(args)...);
      },
      // move_destroy
      [](unsigned char* from, unsigned char* to) {
        ::new (static_cast<void*>(to)) Fn(std::move(*as<Fn>(from)));
        as<Fn>(from)->~Fn();
      },
      // destroy
      [](unsigned char* buf) { as<Fn>(buf)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops heap_ops = {
      [](unsigned char* buf, Args&&... args) -> R {
        return (**as<Fn*>(buf))(std::forward<Args>(args)...);
      },
      [](unsigned char* from, unsigned char* to) {
        ::new (static_cast<void*>(to)) Fn*(*as<Fn*>(from));
        // Pointer itself is trivially destructible; nothing else to do.
      },
      [](unsigned char* buf) { delete *as<Fn*>(buf); },
  };

  alignas(std::max_align_t) unsigned char buffer_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace mecdns::util

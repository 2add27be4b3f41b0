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
// wrap() puts a wrapper around the current target inside the same buffer,
// because a lambda capturing an InlineFunction of its own capacity can
// never fit in one: chains of observers (a DNS responder wrapped by each
// plugin it passes) stay in place.
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

  /// const like std::function's: a const holder (a non-mutable lambda's
  /// capture) may still call its target, which is not itself const.
  R operator()(Args... args) const {
    return ops_->invoke(buffer_, std::forward<Args>(args)...);
  }

  /// True when a callable of type F is stored in place (no heap node), for
  /// static_asserts at the call sites that must not allocate.
  template <typename F>
  static constexpr bool stores_inline =
      sizeof(std::decay_t<F>) <= Capacity &&
      alignof(std::decay_t<F>) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

 private:
  struct Ops;

 public:
  /// True when wrap()ping a target of `inner_size` octets (a stored lambda's
  /// sizeof) in a G stays in place, for static_asserts like stores_inline.
  template <typename G>
  static constexpr bool wraps_inline(std::size_t inner_size) {
    using Frame = WrapFrame<std::decay_t<G>>;
    return frame_offset<Frame>() + inner_size <= Capacity &&
           alignof(Frame) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Frame>;
  }

  /// The target a wrapper was built around; calling it calls that target.
  class Inner {
   public:
    R operator()(Args... args) const {
      return ops_->invoke(buf_, std::forward<Args>(args)...);
    }

   private:
    friend class InlineFunction;
    Inner(const Ops* ops, unsigned char* buf) : ops_(ops), buf_(buf) {}
    const Ops* ops_;
    unsigned char* buf_;
  };

  /// Replaces the (non-empty) target T with `outer`, called as
  /// outer(Inner{T}, args...). The wrapper goes at the front of this
  /// object's buffer and T is relocated behind it, so when both fit nothing
  /// is allocated; otherwise the pair takes one heap node. Wrapping a
  /// wrapper nests the same way.
  template <typename G>
  void wrap(G&& outer) {
    using Frame = WrapFrame<std::decay_t<G>>;
    constexpr std::size_t kOffset = frame_offset<Frame>();
    if constexpr (wraps_inline<G>(0)) {
      const Ops* inner = ops_;
      if (kOffset + inner->size(buffer_) <= Capacity) {
        alignas(std::max_align_t) unsigned char parked[Capacity];
        inner->move_destroy(buffer_, parked);
        ops_ = nullptr;
        ::new (static_cast<void*>(buffer_))
            Frame{std::forward<G>(outer), inner};
        inner->move_destroy(parked, buffer_ + kOffset);
        ops_ = &wrap_ops<Frame>;
        return;
      }
    }
    emplace([outer = std::decay_t<G>(std::forward<G>(outer)),
             inner = std::move(*this)](Args... args) mutable -> R {
      return outer(Inner(inner.ops_, inner.buffer_),
                   std::forward<Args>(args)...);
    });
  }

 private:
  template <typename F>
  void construct(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (stores_inline<Fn>) {
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
    /// Buffer octets the target occupies (a wrapper's include its inner).
    std::size_t (*size)(const unsigned char*);
  };

  /// A wrap()ped target's front part: the wrapper and its inner's ops; the
  /// inner target follows at frame_offset<WrapFrame>().
  template <typename G>
  struct WrapFrame {
    G outer;
    const Ops* inner;
  };

  template <typename Frame>
  static constexpr std::size_t frame_offset() {
    constexpr std::size_t align = alignof(std::max_align_t);
    return (sizeof(Frame) + align - 1) / align * align;
  }

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
      // size
      [](const unsigned char*) { return sizeof(Fn); },
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
      [](const unsigned char*) { return sizeof(Fn*); },
  };

  template <typename Frame>
  static constexpr Ops wrap_ops = {
      [](unsigned char* buf, Args&&... args) -> R {
        Frame& f = *as<Frame>(buf);
        return f.outer(Inner(f.inner, buf + frame_offset<Frame>()),
                       std::forward<Args>(args)...);
      },
      [](unsigned char* from, unsigned char* to) {
        Frame& f = *as<Frame>(from);
        const Ops* inner = f.inner;
        ::new (static_cast<void*>(to)) Frame(std::move(f));
        f.~Frame();
        inner->move_destroy(from + frame_offset<Frame>(),
                            to + frame_offset<Frame>());
      },
      [](unsigned char* buf) {
        Frame& f = *as<Frame>(buf);
        const Ops* inner = f.inner;
        f.~Frame();
        inner->destroy(buf + frame_offset<Frame>());
      },
      [](const unsigned char* buf) {
        const Frame* f =
            std::launder(reinterpret_cast<const Frame*>(buf));
        return frame_offset<Frame>() +
               f->inner->size(buf + frame_offset<Frame>());
      },
  };

  alignas(std::max_align_t) mutable unsigned char buffer_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace mecdns::util

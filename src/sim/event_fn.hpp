// Type-erased event callable stored inline in its event-pool slot.
//
// The discrete-event engine fires millions of closures per simulated
// second; wrapping each one in a std::function heap-allocates as soon as
// the capture outgrows the library's tiny SBO (16 bytes in libstdc++ — a
// single captured net::Packet is ~6x that). EventFn constructs the
// callable in a fixed inline buffer sized for the largest closure the
// models schedule (a packet-in-flight hop: a net::Packet plus one
// pointer), invokes it once and destroys it. A callable that does not fit
// is a compile error where it is scheduled (InlineCallable), so scheduling
// never allocates; and since the callable never leaves its slot, EventFn
// neither moves nor copies.
#pragma once

#include <concepts>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dynaq::sim {

// Inline capacity, chosen so an event-pool slot (EventFn + bookkeeping,
// see EventPool) is exactly two cache lines and a lambda capturing a
// net::Packet by value plus one pointer fits.
inline constexpr std::size_t kEventInlineBytes = 104;
inline constexpr std::size_t kEventInlineAlign = 16;

// What the engine can schedule: an invocable that fits a slot's inline
// buffer. EventFn::emplace, EventPool::acquire, EventQueue::push and
// Simulator::schedule_at/in all require it.
template <typename F>
concept InlineCallable = std::invocable<std::remove_cvref_t<F>&> &&
                         sizeof(std::remove_cvref_t<F>) <= kEventInlineBytes &&
                         alignof(std::remove_cvref_t<F>) <= kEventInlineAlign;

class EventFn {
 public:
  EventFn() = default;
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  // Constructs `f` in place, destroying any held callable first.
  template <InlineCallable F>
  void emplace(F&& f) {
    using T = std::remove_cvref_t<F>;
    reset();
    ::new (static_cast<void*>(storage_)) T(std::forward<F>(f));
    ops_ = &kOps<T>;
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }

  // Invokes the held callable and destroys it (even when it throws),
  // leaving *this empty — one indirect call instead of invoke + destroy.
  // Precondition: bool(*this).
  void consume() {
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->consume(storage_);
  }

 private:
  struct Ops {
    void (*consume)(void*);  // invoke + destroy (destroys even on throw)
    void (*destroy)(void*) noexcept;
  };

  template <typename T>
  static constexpr Ops kOps{
      [](void* p) {
        T* t = std::launder(reinterpret_cast<T*>(p));
        struct Guard {
          T* t;
          ~Guard() { t->~T(); }
        } guard{t};
        (*t)();
      },
      [](void* p) noexcept { std::launder(reinterpret_cast<T*>(p))->~T(); }};

  alignas(kEventInlineAlign) unsigned char storage_[kEventInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace dynaq::sim

/**
 * @file
 * Move-only callable wrapper used by the event scheduler.
 *
 * Lives in its own header so the timing wheel (timing_wheel.hh) and
 * the tests' reference heap (tests/reference_heap_queue.hh) can store
 * callables without pulling in the full EventQueue interface.
 */

#ifndef FLEXSNOOP_SIM_EVENT_FN_HH
#define FLEXSNOOP_SIM_EVENT_FN_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace flexsnoop
{

/**
 * Move-only callable wrapper with small-buffer optimization.
 *
 * Callables whose size fits kInlineSize (and that are nothrow
 * move-constructible) live inside the wrapper; larger ones fall back to
 * a heap allocation. Unlike std::function there is no copy support and
 * no RTTI, which keeps the inline fast path a single indirect call.
 */
class EventFn
{
  public:
    /** Inline storage: sized so a ring-hop lambda (this + NodeId +
     *  SnoopMessage) and the retry lambdas stay allocation-free. The
     *  ring and gateway capture sites static_assert fitsInline(). */
    static constexpr std::size_t kInlineSize = 64;

    EventFn() noexcept = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    EventFn(F &&fn)
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(_storage)) Fn(std::forward<F>(fn));
            _ops = &inlineOps<Fn>;
        } else {
            ::new (static_cast<void *>(_storage))
                Fn *(new Fn(std::forward<F>(fn)));
            _ops = &heapOps<Fn>;
        }
    }

    EventFn(EventFn &&other) noexcept { moveFrom(std::move(other)); }

    EventFn &
    operator=(EventFn &&other) noexcept
    {
        if (this != &other) {
            destroy();
            moveFrom(std::move(other));
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { destroy(); }

    explicit operator bool() const noexcept { return _ops != nullptr; }

    void
    operator()()
    {
        _ops->invoke(_storage);
    }

    /** True if a callable of type @p Fn avoids the heap fallback. */
    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= kInlineSize &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        void (*moveTo)(void *src, void *dst); ///< move-construct + destroy src
        void (*destroy)(void *);
    };

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void *p) { (*std::launder(reinterpret_cast<Fn *>(p)))(); },
        [](void *src, void *dst) {
            Fn *s = std::launder(reinterpret_cast<Fn *>(src));
            ::new (dst) Fn(std::move(*s));
            s->~Fn();
        },
        [](void *p) { std::launder(reinterpret_cast<Fn *>(p))->~Fn(); },
    };

    template <typename Fn>
    static constexpr Ops heapOps = {
        [](void *p) {
            (**std::launder(reinterpret_cast<Fn **>(p)))();
        },
        [](void *src, void *dst) {
            Fn **s = std::launder(reinterpret_cast<Fn **>(src));
            ::new (dst) Fn *(*s); // steal the pointer
        },
        [](void *p) { delete *std::launder(reinterpret_cast<Fn **>(p)); },
    };

    void
    moveFrom(EventFn &&other) noexcept
    {
        _ops = other._ops;
        if (_ops)
            _ops->moveTo(other._storage, _storage);
        other._ops = nullptr;
    }

    void
    destroy() noexcept
    {
        if (_ops) {
            _ops->destroy(_storage);
            _ops = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char _storage[kInlineSize];
    const Ops *_ops = nullptr;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_SIM_EVENT_FN_HH

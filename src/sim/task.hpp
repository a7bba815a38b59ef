// Coroutine plumbing for simulated threads.
//
// A simulated thread is a C++20 coroutine. Workload code reads naturally --
//
//   sim::Task<void> worker(stamp::TxCtx& c) {
//     co_await c.tx([&](stamp::TxCtx& t) -> sim::Task<void> {
//       auto v = co_await t.load(addr);
//       co_await t.store(addr, v + 1);
//     });
//   }
//
// -- while every memory operation suspends the coroutine on the
// discrete-event scheduler and resumes it when the simulated access
// completes. Transaction aborts do not travel through these frames: the
// abort resumes the transaction's root frame (the retry loop), and
// destroying the Task it awaits destroys the nested frames in place
// (sim/thread_context.hpp). Exceptions are reserved for errors.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>
#include <variant>

namespace suvtm::sim {

template <class T>
class Task;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <class P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
};

}  // namespace detail

/// Lazy task: starts when first awaited; resumes the awaiter on completion
/// via symmetric transfer. Move-only; owns its coroutine frame.
template <class T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::variant<std::monostate, T, std::exception_ptr> result;

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_value(T v) { result.template emplace<1>(std::move(v)); }
    void unhandled_exception() {
      result.template emplace<2>(std::current_exception());
    }
  };

  Task(Task&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    h_.promise().continuation = awaiter;
    return h_;
  }
  T await_resume() {
    auto& r = h_.promise().result;
    if (r.index() == 2) std::rethrow_exception(std::get<2>(r));
    // No result: a transaction abort unwound this frame before it returned,
    // and the awaiting root discards the value.
    if (r.index() == 0) return T{};
    return std::move(std::get<1>(r));
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  void destroy() {
    if (h_) h_.destroy();
  }
  std::coroutine_handle<promise_type> h_{};
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    std::exception_ptr error;

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() {}
    void unhandled_exception() { error = std::current_exception(); }
  };

  Task(Task&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    h_.promise().continuation = awaiter;
    return h_;
  }
  void await_resume() {
    if (h_.promise().error) std::rethrow_exception(h_.promise().error);
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  void destroy() {
    if (h_) h_.destroy();
  }
  std::coroutine_handle<promise_type> h_{};
};

/// Top-level coroutine for one simulated hardware thread. Created by the
/// Simulator, resumed by the scheduler; reports completion and any escaped
/// exception back through flags owned by the Simulator.
class ThreadTask {
 public:
  struct promise_type {
    bool* done = nullptr;
    std::exception_ptr* error_sink = nullptr;

    ThreadTask get_return_object() {
      return ThreadTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        if (h.promise().done) *h.promise().done = true;
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() {
      if (error_sink) *error_sink = std::current_exception();
    }
  };

  ThreadTask(ThreadTask&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  ThreadTask& operator=(ThreadTask&& o) noexcept {
    if (this != &o) {
      if (h_) h_.destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  ThreadTask(const ThreadTask&) = delete;
  ThreadTask& operator=(const ThreadTask&) = delete;
  ~ThreadTask() {
    if (h_) h_.destroy();
  }

  /// Wire completion/error reporting, then hand the handle to the scheduler.
  std::coroutine_handle<> prepare(bool* done, std::exception_ptr* error_sink) {
    h_.promise().done = done;
    h_.promise().error_sink = error_sink;
    return h_;
  }

 private:
  explicit ThreadTask(std::coroutine_handle<promise_type> h) : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

}  // namespace suvtm::sim

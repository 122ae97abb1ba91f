// Unit tests for the in-process cluster transport: RPC round trips,
// parallel fan-out, crash semantics, restart, crash subscriptions, and the
// two dispatch paths (inline on the caller vs posted to the site's strand).

#include "net/network.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "fault/fault_injector.h"
#include "tests/test_util.h"

namespace harbor {
namespace {

Message Ping(uint16_t type, uint8_t byte) {
  Message m;
  m.type = type;
  m.payload = {byte};
  return m;
}

/// A one-shot latch whose wait gives up after `timeout`, so a test whose
/// premise breaks fails instead of hanging.
class Latch {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  bool Wait(std::chrono::milliseconds timeout = std::chrono::seconds(5)) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(NetworkTest, CallRoundTrip) {
  Network net(SimConfig::Zero());
  ASSERT_OK(net.RegisterSite(1, [](SiteId from, const Message& m) {
    Message reply = m;
    reply.payload.push_back(static_cast<uint8_t>(from));
    return Result<Message>(reply);
  }, 2));
  ASSERT_OK_AND_ASSIGN(Message reply, net.Call(0, 1, Ping(7, 42)));
  EXPECT_EQ(reply.type, 7);
  ASSERT_EQ(reply.payload.size(), 2u);
  EXPECT_EQ(reply.payload[0], 42);
  EXPECT_EQ(reply.payload[1], 0);  // handler saw the sender id
}

TEST(NetworkTest, HandlerErrorsPropagate) {
  Network net(SimConfig::Zero());
  ASSERT_OK(net.RegisterSite(1, [](SiteId, const Message&) {
    return Result<Message>(Status::Aborted("no"));
  }, 1));
  EXPECT_TRUE(net.Call(0, 1, Ping(1, 1)).status().IsAborted());
}

TEST(NetworkTest, CallToUnknownOrDeadSiteIsUnavailable) {
  Network net(SimConfig::Zero());
  EXPECT_TRUE(net.Call(0, 9, Ping(1, 1)).status().IsUnavailable());
  ASSERT_OK(net.RegisterSite(1, [](SiteId, const Message& m) {
    return Result<Message>(m);
  }, 1));
  net.CrashSite(1);
  EXPECT_FALSE(net.IsAlive(1));
  EXPECT_TRUE(net.Call(0, 1, Ping(1, 1)).status().IsUnavailable());
}

TEST(NetworkTest, ParallelFanOutCompletes) {
  Network net(SimConfig::Zero());
  std::atomic<int> handled{0};
  for (SiteId s = 1; s <= 4; ++s) {
    ASSERT_OK(net.RegisterSite(s, [&](SiteId, const Message& m) {
      handled++;
      return Result<Message>(m);
    }, 2));
  }
  std::vector<std::shared_ptr<Network::Replies>> futures;
  for (int i = 0; i < 40; ++i) {
    futures.push_back(net.CallAsync(0, static_cast<SiteId>(1 + i % 4),
                                    Ping(1, static_cast<uint8_t>(i))));
  }
  for (auto& f : futures) EXPECT_TRUE(f->get().ok());
  EXPECT_EQ(handled.load(), 40);
}

TEST(NetworkTest, CrashFailsQueuedCalls) {
  Network net(SimConfig::Zero());
  std::atomic<bool> release{false};
  ASSERT_OK(net.RegisterSite(1, [&](SiteId, const Message& m) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Result<Message>(m);
  }, 1));
  // One in-flight call occupies the single server thread; more queue up.
  auto f1 = net.CallAsync(0, 1, Ping(1, 1));
  auto f2 = net.CallAsync(0, 1, Ping(1, 2));
  auto f3 = net.CallAsync(0, 1, Ping(1, 3));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread crasher([&] {
    release = true;  // let the in-flight handler drain
    net.CrashSite(1);
  });
  // Queued calls fail with Unavailable (the closed-connection signal).
  Result<Message> r2 = f2->get();
  Result<Message> r3 = f3->get();
  EXPECT_TRUE(r2.status().IsUnavailable() || r2.ok());
  EXPECT_TRUE(r3.status().IsUnavailable() || r3.ok());
  f1->get();
  crasher.join();
}

TEST(NetworkTest, RestartAfterCrash) {
  Network net(SimConfig::Zero());
  auto echo = [](SiteId, const Message& m) { return Result<Message>(m); };
  ASSERT_OK(net.RegisterSite(1, echo, 1));
  // Double registration of a live site is refused.
  EXPECT_TRUE(net.RegisterSite(1, echo, 1).IsAlreadyExists());
  net.CrashSite(1);
  ASSERT_OK(net.RegisterSite(1, echo, 1));
  EXPECT_TRUE(net.Call(0, 1, Ping(1, 1)).ok());
}

TEST(NetworkTest, CrashSubscribersFire) {
  Network net(SimConfig::Zero());
  auto echo = [](SiteId, const Message& m) { return Result<Message>(m); };
  ASSERT_OK(net.RegisterSite(1, echo, 1));
  ASSERT_OK(net.RegisterSite(2, echo, 1));
  std::vector<SiteId> crashed;
  net.SubscribeCrash([&](SiteId s) { crashed.push_back(s); });
  net.CrashSite(2);
  ASSERT_EQ(crashed.size(), 1u);
  EXPECT_EQ(crashed[0], 2u);
}

TEST(NetworkTest, MessageStatsAccumulate) {
  Network net(SimConfig::Zero());
  ASSERT_OK(net.RegisterSite(1, [](SiteId, const Message& m) {
    return Result<Message>(m);
  }, 1));
  int64_t before = net.num_messages();
  ASSERT_OK(net.Call(0, 1, Ping(1, 1)).status());
  // One request + one reply.
  EXPECT_EQ(net.num_messages() - before, 2);
}

// Regression test for the crash drain path: a CrashSite racing with another
// CrashSite on the same endpoint used to return while the first caller was
// still joining server threads, so "CrashSite returned" did not imply
// "handlers drained". Now every CrashSite call — winner or loser — blocks
// until the endpoint is fully drained, and the crash subscribers fire
// exactly once.
TEST(NetworkTest, ConcurrentCrashWaitsForDrain) {
  for (int round = 0; round < 20; ++round) {
    Network net(SimConfig::Zero());
    std::atomic<bool> release{false};
    std::atomic<int> in_flight{0};
    ASSERT_OK(net.RegisterSite(1, [&](SiteId, const Message& m) {
      in_flight++;
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      in_flight--;
      return Result<Message>(m);
    }, 2));
    std::atomic<int> subscriber_fires{0};
    net.SubscribeCrash([&](SiteId) {
      // By the time subscribers run, no handler may still be executing.
      EXPECT_EQ(in_flight.load(), 0);
      subscriber_fires++;
    });

    auto f1 = net.CallAsync(0, 1, Ping(1, 1));
    auto f2 = net.CallAsync(0, 1, Ping(1, 2));
    while (in_flight.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    std::thread other_crasher([&] { net.CrashSite(1); });
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    release = true;
    net.CrashSite(1);  // concurrent with other_crasher
    // Both CrashSite calls have returned only once the drain completed.
    EXPECT_EQ(in_flight.load(), 0);
    EXPECT_FALSE(net.IsAlive(1));
    other_crasher.join();
    EXPECT_EQ(subscriber_fires.load(), 1);
    f1->get();
    f2->get();
  }
}

TEST(NetworkTest, CrashUnderConcurrentAsyncLoad) {
  // Client threads hammer CallAsync while the site crashes and restarts
  // underneath them: every future must complete (reply or Unavailable),
  // with no use-after-free or double-join in the dispatch teardown. Runs
  // under the TSan CI filter.
  Network net(SimConfig::Zero());
  std::atomic<int64_t> handled{0};
  auto handler = [&](SiteId, const Message& m) {
    handled.fetch_add(1, std::memory_order_relaxed);
    return Result<Message>(m);
  };
  ASSERT_OK(net.RegisterSite(1, handler, 4));

  std::atomic<bool> stop{false};
  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> bad_status{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      std::vector<std::shared_ptr<Network::Replies>> pending;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 8; ++i) {
          pending.push_back(net.CallAsync(0, 1, Ping(1, 1)));
        }
        for (auto& f : pending) {
          Result<Message> r = f->get();
          completed.fetch_add(1, std::memory_order_relaxed);
          if (!r.ok() && !r.status().IsUnavailable()) {
            bad_status.fetch_add(1, std::memory_order_relaxed);
          }
        }
        pending.clear();
      }
    });
  }

  for (int round = 0; round < 10; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    net.CrashSite(1);
    ASSERT_OK(net.RegisterSite(1, handler, 4));  // restart
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  net.CrashSite(1);

  EXPECT_GT(completed.load(), 0);
  EXPECT_GT(handled.load(), 0);
  EXPECT_EQ(bad_status.load(), 0)
      << "a crash must surface as kUnavailable, nothing else";
}

// CallAsync must never run its handler on the caller: recovery's
// double-buffered prefetch and parallel streams depend on the caller
// running on while the handler does. Here the handler waits for a signal
// the caller sends only after CallAsync returns; an inline CallAsync would
// time the handler out instead of hanging the test.
TEST(NetworkTest, CallAsyncNeverRunsOnTheCaller) {
  Network net(SimConfig::Zero());
  Latch returned;
  ASSERT_OK(net.RegisterSite(1, [&](SiteId, const Message& m) {
    if (!returned.Wait(std::chrono::seconds(2))) {
      return Result<Message>(Status::Internal("CallAsync ran inline"));
    }
    return Result<Message>(m);
  }, 1));
  auto pending = net.CallAsync(0, 1, Ping(1, 1));
  returned.Open();
  EXPECT_OK(pending->get().status());
}

TEST(NetworkTest, IdleStrandRunsCallOnTheCaller) {
  Network net(SimConfig::Zero());
  std::thread::id handler_thread;
  ASSERT_OK(net.RegisterSite(1, [&](SiteId, const Message& m) {
    handler_thread = std::this_thread::get_id();
    return Result<Message>(m);
  }, 1));
  const int64_t tasks_before = net.scheduler()->tasks_run();
  ASSERT_OK(net.Call(0, 1, Ping(1, 1)).status());
  EXPECT_EQ(handler_thread, std::this_thread::get_id());
  EXPECT_EQ(net.scheduler()->tasks_run(), tasks_before);
  // A fan-out round runs every idle target inline too.
  ASSERT_OK(net.RegisterSite(2, [](SiteId, const Message& m) {
    return Result<Message>(m);
  }, 1));
  for (const Result<Message>& r : net.CallAll(0, {1, 2, 9}, Ping(1, 2))) {
    EXPECT_TRUE(r.ok() || r.status().IsUnavailable());
  }
  EXPECT_EQ(handler_thread, std::this_thread::get_id());
  EXPECT_EQ(net.scheduler()->tasks_run(), tasks_before);
}

// A busy width-1 strand makes Call post, and the posted call runs after the
// calls already queued there: the inline path never overtakes the inbox.
TEST(NetworkTest, BusyStrandMakesCallPostBehindQueuedCalls) {
  Network net(SimConfig::Zero());
  Latch started, release;
  std::mutex mu;
  std::vector<uint8_t> order;
  std::thread::id last_handler_thread;
  ASSERT_OK(net.RegisterSite(1, [&](SiteId, const Message& m) {
    if (m.payload[0] == 1) {
      started.Open();
      EXPECT_TRUE(release.Wait());
    }
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(m.payload[0]);
    last_handler_thread = std::this_thread::get_id();
    return Result<Message>(m);
  }, 1));
  auto first = net.CallAsync(0, 1, Ping(1, 1));
  ASSERT_TRUE(started.Wait());
  auto second = net.CallAsync(0, 1, Ping(1, 2));
  auto third = net.CallAsync(0, 1, Ping(1, 3));
  std::thread::id caller_thread;
  std::thread caller([&] {
    caller_thread = std::this_thread::get_id();
    EXPECT_OK(net.Call(0, 1, Ping(1, 4)).status());
  });
  // Give the caller time to find the strand busy before it frees up; the
  // order check below holds however the threads interleave.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.Open();
  caller.join();
  EXPECT_OK(first->get().status());
  EXPECT_OK(second->get().status());
  EXPECT_OK(third->get().status());
  EXPECT_EQ(order, (std::vector<uint8_t>{1, 2, 3, 4}));
  EXPECT_NE(last_handler_thread, caller_thread);
}

// An inline handler holds a slot of the endpoint's width: a call posted
// while it runs on a width-1 site waits for it, then runs on the pool.
TEST(NetworkTest, InlineHandlerHoldsASlotOfTheWidth) {
  Network net(SimConfig::Zero());
  Latch started, release;
  std::mutex mu;
  std::vector<uint8_t> order;
  ASSERT_OK(net.RegisterSite(1, [&](SiteId, const Message& m) {
    if (m.payload[0] == 1) {
      started.Open();
      EXPECT_TRUE(release.Wait());
    }
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(m.payload[0]);
    return Result<Message>(m);
  }, 1));
  std::thread caller([&] { EXPECT_OK(net.Call(0, 1, Ping(1, 1)).status()); });
  ASSERT_TRUE(started.Wait());
  auto posted = net.CallAsync(0, 1, Ping(1, 2));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(order.empty()) << "a posted call ran beside the inline one";
  }
  release.Open();
  caller.join();
  EXPECT_OK(posted->get().status());
  EXPECT_EQ(order, (std::vector<uint8_t>{1, 2}));
}

// A Call made from a pool task finds the target endpoint idle and runs the
// handler on the task's own thread: no second task, no spare worker.
TEST(NetworkTest, CallFromPoolTaskRunsInlineWithoutSpare) {
  runtime::Scheduler sched(runtime::Scheduler::Options{.workers = 2});
  Network net(SimConfig::Zero(), &sched);
  std::thread::id handler_thread;
  ASSERT_OK(net.RegisterSite(1, [&](SiteId, const Message& m) {
    handler_thread = std::this_thread::get_id();
    return Result<Message>(m);
  }, 1));
  std::thread::id task_thread;
  Latch done;
  Status status;
  ASSERT_TRUE(sched.Post([&] {
    task_thread = std::this_thread::get_id();
    status = net.Call(0, 1, Ping(1, 1)).status();
    done.Open();
  }));
  ASSERT_TRUE(done.Wait());
  EXPECT_OK(status);
  EXPECT_EQ(handler_thread, task_thread);
  EXPECT_EQ(sched.spares_spawned(), 0);
  net.CrashSite(1);
  sched.Shutdown();
  EXPECT_EQ(sched.tasks_run(), 1);
}

// Link faults act the same on both paths: a Call that would run inline and
// a CallAsync (always posted) see the same outcome, handler runs and
// message count for a dropped, duplicated or delayed message.
TEST(NetworkTest, LinkFaultsActTheSameOnBothPaths) {
  struct Outcome {
    bool ok;
    int handled;
    int64_t messages;
    bool operator==(const Outcome&) const = default;
  };
  auto run = [](const std::string& fault, bool async) {
    Network net(SimConfig::Zero());
    std::atomic<int> handled{0};
    // Width 1: an injected duplicate (queued first) is fully served,
    // reply charge included, before the original starts.
    EXPECT_OK(net.RegisterSite(1, [&](SiteId, const Message& m) {
      handled++;
      return Result<Message>(m);
    }, 1));
    auto schedule = fault::ChaosSchedule::Parse("seed=3;" + fault);
    EXPECT_OK(schedule.status());
    fault::FaultInjector injector(*schedule);
    injector.Install();
    Result<Message> r = async ? net.CallAsync(0, 1, Ping(1, 1))->get()
                              : net.Call(0, 1, Ping(1, 1));
    injector.Uninstall();
    return Outcome{r.ok(), handled.load(), net.num_messages()};
  };
  const std::vector<std::pair<std::string, Outcome>> cases = {
      {"link=0->1,action=drop,max=1", {false, 0, 0}},
      {"link=0->1,action=dup,max=1", {true, 2, 4}},
      {"link=0->1,action=delay,ms=5,max=1", {true, 1, 2}},
      {"link=0->2,action=drop,max=1", {true, 1, 2}},  // another link
  };
  for (const auto& [fault, expected] : cases) {
    SCOPED_TRACE(fault);
    EXPECT_EQ(run(fault, /*async=*/false), expected);
    EXPECT_EQ(run(fault, /*async=*/true), expected);
  }
}

// CrashSite waits for a handler running inline on a caller's thread, just
// as for a posted one, and later calls fail with kUnavailable.
TEST(NetworkTest, CrashWaitsForInlineHandler) {
  Network net(SimConfig::Zero());
  Latch entered, release;
  std::atomic<bool> in_handler{false};
  std::thread::id handler_thread;
  ASSERT_OK(net.RegisterSite(1, [&](SiteId, const Message& m) {
    handler_thread = std::this_thread::get_id();
    in_handler = true;
    entered.Open();
    EXPECT_TRUE(release.Wait());
    in_handler = false;
    return Result<Message>(m);
  }, 2));
  std::thread::id caller_thread;
  Status call_status;
  std::thread caller([&] {
    caller_thread = std::this_thread::get_id();
    call_status = net.Call(0, 1, Ping(1, 1)).status();
  });
  ASSERT_TRUE(entered.Wait());
  std::atomic<bool> crashed{false};
  std::thread crasher([&] {
    net.CrashSite(1);
    EXPECT_FALSE(in_handler.load()) << "crash returned mid-handler";
    crashed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(crashed.load());
  release.Open();
  crasher.join();
  caller.join();
  EXPECT_EQ(handler_thread, caller_thread);
  EXPECT_OK(call_status);
  EXPECT_TRUE(net.Call(0, 1, Ping(1, 2)).status().IsUnavailable());
  EXPECT_TRUE(net.CallAll(0, {1}, Ping(1, 3))[0].status().IsUnavailable());
}

}  // namespace
}  // namespace harbor

// Transaction-layer tests: matching, timeout, retransmission, spoofing.
#include <gtest/gtest.h>

#include "dns/server.h"
#include "dns/transport.h"
#include "util/strings.h"

namespace mecdns::dns {
namespace {

using simnet::Endpoint;
using simnet::Ipv4Address;
using simnet::LatencyModel;
using simnet::SimTime;

/// A server that answers per a script: drop the first N queries, then
/// respond (optionally from a spoofed source / with a mangled question).
class ScriptedServer {
 public:
  ScriptedServer(simnet::Network& net, simnet::NodeId node) {
    socket_ = net.open_socket(node, kDnsPort, [this](const simnet::Packet& p) {
      ++received_;
      if (drop_first_ > 0) {
        --drop_first_;
        return;
      }
      auto query = decode(p.payload);
      ASSERT_TRUE(query.ok());
      if (servfail_) {
        socket_->send(p.src, encode(make_response(to_query(query.value()),
                                                  RCode::kServFail)));
        return;
      }
      Message response = make_response(to_query(query.value()));
      if (mangle_question_) {
        response.questions.front().name = DnsName::must_parse("evil.test");
      }
      response.answers.push_back(
          make_a(query.value().question().name,
                 Ipv4Address::must_parse("198.18.0.1"), 30));
      socket_->send(p.src, encode(response));
    });
  }

  int received() const { return received_; }
  void drop_first(int n) { drop_first_ = n; }
  void mangle_question(bool v) { mangle_question_ = v; }
  void respond_servfail(bool v) { servfail_ = v; }

 private:
  simnet::UdpSocket* socket_;
  int received_ = 0;
  int drop_first_ = 0;
  bool mangle_question_ = false;
  bool servfail_ = false;
};

class TransportTest : public ::testing::Test {
 protected:
  TransportTest() : net_(sim_, util::Rng(3)) {
    client_node_ = net_.add_node("client", Ipv4Address::must_parse("10.0.0.1"));
    server_node_ = net_.add_node("server", Ipv4Address::must_parse("10.0.0.2"));
    net_.add_link(client_node_, server_node_,
                  LatencyModel::constant(SimTime::millis(2)));
    server_ = std::make_unique<ScriptedServer>(net_, server_node_);
    transport_ = std::make_unique<DnsTransport>(net_.runtime(client_node_));
  }

  Endpoint server_endpoint() const {
    return {Ipv4Address::must_parse("10.0.0.2"), kDnsPort};
  }

  simnet::Simulator sim_;
  simnet::Network net_;
  simnet::NodeId client_node_;
  simnet::NodeId server_node_;
  std::unique_ptr<ScriptedServer> server_;
  std::unique_ptr<DnsTransport> transport_;
};

TEST_F(TransportTest, QueryGetsResponseWithRtt) {
  bool done = false;
  transport_->query(
      server_endpoint(),
      make_query(0, DnsName::must_parse("x.test"), RecordType::kA), {},
      [&](util::Result<Message> result, SimTime rtt) {
        done = true;
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(result.value().answers.size(), 1u);
        EXPECT_EQ(rtt, SimTime::millis(4));
      });
  sim_.run();
  EXPECT_TRUE(done);
}

TEST_F(TransportTest, TimesOutWhenServerSilent) {
  server_->drop_first(100);
  bool done = false;
  auto options = std::make_shared<DnsTransport::Options>();
  options->timeout = SimTime::millis(100);
  transport_->query(
      server_endpoint(),
      make_query(0, DnsName::must_parse("x.test"), RecordType::kA), options,
      [&](util::Result<Message> result, SimTime rtt) {
        done = true;
        EXPECT_FALSE(result.ok());
        EXPECT_GE(rtt, SimTime::millis(100));
      });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(transport_->timeouts(), 1u);
}

TEST_F(TransportTest, RetransmissionRecovers) {
  server_->drop_first(2);
  bool done = false;
  auto options = std::make_shared<DnsTransport::Options>();
  options->timeout = SimTime::millis(50);
  options->max_retries = 3;
  transport_->query(
      server_endpoint(),
      make_query(0, DnsName::must_parse("x.test"), RecordType::kA), options,
      [&](util::Result<Message> result, SimTime) {
        done = true;
        EXPECT_TRUE(result.ok());
      });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(transport_->retransmissions(), 2u);
  EXPECT_EQ(server_->received(), 3);
}

TEST_F(TransportTest, RetriesExhaustedFails) {
  server_->drop_first(100);
  bool done = false;
  auto options = std::make_shared<DnsTransport::Options>();
  options->timeout = SimTime::millis(50);
  options->max_retries = 2;
  transport_->query(
      server_endpoint(),
      make_query(0, DnsName::must_parse("x.test"), RecordType::kA), options,
      [&](util::Result<Message> result, SimTime) {
        done = true;
        EXPECT_FALSE(result.ok());
      });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(server_->received(), 3);  // initial + 2 retries
}

TEST_F(TransportTest, RejectsResponseWithMangledQuestion) {
  server_->mangle_question(true);
  bool done = false;
  auto options = std::make_shared<DnsTransport::Options>();
  options->timeout = SimTime::millis(50);
  transport_->query(
      server_endpoint(),
      make_query(0, DnsName::must_parse("x.test"), RecordType::kA), options,
      [&](util::Result<Message> result, SimTime) {
        done = true;
        EXPECT_FALSE(result.ok());  // mangled answer ignored -> timeout
      });
  sim_.run();
  EXPECT_TRUE(done);
}

TEST_F(TransportTest, RejectsSpoofedSource) {
  // A third party answers instead of the queried server: must be ignored.
  const simnet::NodeId spoofer =
      net_.add_node("spoofer", Ipv4Address::must_parse("10.0.0.66"));
  net_.add_link(client_node_, spoofer,
                LatencyModel::constant(SimTime::millis(1)));
  server_->drop_first(100);

  bool done = false;
  auto options = std::make_shared<DnsTransport::Options>();
  options->timeout = SimTime::millis(80);
  transport_->query(
      server_endpoint(),
      make_query(0, DnsName::must_parse("x.test"), RecordType::kA), options,
      [&](util::Result<Message> result, SimTime) {
        done = true;
        EXPECT_FALSE(result.ok());
      });

  // The spoofer races a matching-id response from the wrong address.
  simnet::UdpSocket* socket = net_.open_socket(spoofer, kDnsPort, nullptr);
  sim_.schedule_at(SimTime::millis(1), [&] {
    Message fake = make_query(0, DnsName::must_parse("x.test"), RecordType::kA);
    fake.header.qr = true;
    // Try every plausible id (the transport's ids are sequential).
    for (std::uint32_t id = 1; id < 0x10000; id += 997) {
      fake.header.id = static_cast<std::uint16_t>(id);
      socket->send(transport_->local_endpoint(), encode(fake));
    }
  });
  sim_.run();
  EXPECT_TRUE(done);
}

TEST_F(TransportTest, ConcurrentQueriesGetDistinctIds) {
  int answered = 0;
  for (int i = 0; i < 20; ++i) {
    const std::string n = std::to_string(i);
    transport_->query(
        server_endpoint(),
        make_query(0, DnsName::must_parse("q" + n + ".test"),
                   RecordType::kA),
        {},
        [&](util::Result<Message> result, SimTime) {
          ASSERT_TRUE(result.ok());
          ++answered;
        });
  }
  sim_.run();
  EXPECT_EQ(answered, 20);
}

TEST_F(TransportTest, Dns0x20QueryStillResolvesAgainstHonestServer) {
  // The scripted server echoes the question verbatim, so a randomized-case
  // query round-trips; comparisons stay case-insensitive at the DNS layer.
  auto options = std::make_shared<DnsTransport::Options>();
  options->use_0x20 = true;
  int successes = 0;
  for (int i = 0; i < 10; ++i) {
    transport_->query(
        server_endpoint(),
        make_query(0, DnsName::must_parse("mixedcasehost.example.test"),
                   RecordType::kA),
        options, [&](util::Result<Message> result, SimTime) {
          if (result.ok()) ++successes;
        });
  }
  sim_.run();
  EXPECT_EQ(successes, 10);
}

TEST_F(TransportTest, Dns0x20RejectsCaseNormalizedSpoof) {
  // A spoofing server that lowercases the echoed question defeats plain id
  // matching but not 0x20 verification.
  const simnet::NodeId evil_node =
      net_.add_node("evil", Ipv4Address::must_parse("10.0.0.9"));
  net_.add_link(client_node_, evil_node,
                LatencyModel::constant(SimTime::millis(1)));
  simnet::UdpSocket* evil_socket = nullptr;
  evil_socket = net_.open_socket(
      evil_node, kDnsPort, [&](const simnet::Packet& p) {
        auto query = decode(p.payload);
        ASSERT_TRUE(query.ok());
        Message response = make_response(to_query(query.value()));
        // Normalize case (what an off-path guesser would send).
        response.questions.front().name = DnsName::must_parse(
            util::to_lower(query.value().question().name.to_string()));
        response.answers.push_back(make_a(response.questions.front().name,
                                          Ipv4Address::must_parse("6.6.6.6"),
                                          30));
        evil_socket->send(p.src, encode(response));
      });

  auto options = std::make_shared<DnsTransport::Options>();
  options->use_0x20 = true;
  options->timeout = SimTime::millis(80);
  bool rejected = false;
  transport_->query(
      {Ipv4Address::must_parse("10.0.0.9"), kDnsPort},
      make_query(0, DnsName::must_parse("averylongmixedcasename.example.test"),
                 RecordType::kA),
      options, [&](util::Result<Message> result, SimTime) {
        rejected = !result.ok();  // case-mismatched answer dropped -> timeout
      });
  sim_.run();
  EXPECT_TRUE(rejected);
}

TEST_F(TransportTest, DestroyedTransportDisarmsPendingTimeouts) {
  // Regression: a transport destroyed with a pending query must not crash
  // when its timeout event later fires.
  server_->drop_first(100);
  {
    DnsTransport ephemeral(net_.runtime(client_node_));
    auto options = std::make_shared<DnsTransport::Options>();
    options->timeout = SimTime::millis(500);
    ephemeral.query(server_endpoint(),
                    make_query(0, DnsName::must_parse("x.test"),
                               RecordType::kA),
                    options, [](util::Result<Message>, SimTime) {
                      FAIL() << "callback after destruction";
                    });
    sim_.run_until(sim_.now() + SimTime::millis(10));
  }  // transport destroyed here, timeout still queued
  sim_.run();  // must not segfault or invoke the callback
}

TEST_F(TransportTest, LateResponseAfterTimeoutIsIgnored) {
  // Server answers slower than the timeout; the callback must fire exactly
  // once (the timeout), and the late response must not crash or double-call.
  const simnet::NodeId slow_node =
      net_.add_node("slow", Ipv4Address::must_parse("10.0.0.3"));
  net_.add_link(client_node_, slow_node,
                LatencyModel::constant(SimTime::millis(300)));
  ScriptedServer slow_server(net_, slow_node);

  int calls = 0;
  auto options = std::make_shared<DnsTransport::Options>();
  options->timeout = SimTime::millis(100);
  transport_->query(
      {Ipv4Address::must_parse("10.0.0.3"), kDnsPort},
      make_query(0, DnsName::must_parse("x.test"), RecordType::kA), options,
      [&](util::Result<Message> result, SimTime) {
        ++calls;
        EXPECT_FALSE(result.ok());
      });
  sim_.run();
  EXPECT_EQ(calls, 1);
}

TEST_F(TransportTest, IdWrapAroundSkipsInFlightQuery) {
  // Regression: force the id counter onto an in-flight transaction's id.
  // The second query must get a different id — clobbering the pending
  // entry would drop the first query's callback and cross the answers.
  server_->drop_first(1);  // keep query A in flight past B's send
  transport_->set_next_id(0xFFFF);

  int a_calls = 0;
  int b_calls = 0;
  std::uint16_t a_id = 0;
  std::uint16_t b_id = 0;
  auto options = std::make_shared<DnsTransport::Options>();
  options->timeout = SimTime::millis(100);
  options->max_retries = 1;  // A's first send is dropped; retry answers it
  transport_->query(
      server_endpoint(),
      make_query(0, DnsName::must_parse("a.test"), RecordType::kA), options,
      [&](util::Result<Message> result, SimTime) {
        ++a_calls;
        ASSERT_TRUE(result.ok());
        a_id = result.value().header.id;
        EXPECT_EQ(result.value().question().name.to_string(), "a.test");
      });

  // While A waits on id 0xFFFF, wind the counter back onto it.
  transport_->set_next_id(0xFFFF);
  transport_->query(
      server_endpoint(),
      make_query(0, DnsName::must_parse("b.test"), RecordType::kA), options,
      [&](util::Result<Message> result, SimTime) {
        ++b_calls;
        ASSERT_TRUE(result.ok());
        b_id = result.value().header.id;
        EXPECT_EQ(result.value().question().name.to_string(), "b.test");
      });

  sim_.run();
  EXPECT_EQ(a_calls, 1);
  EXPECT_EQ(b_calls, 1);
  EXPECT_EQ(a_id, 0xFFFF);
  EXPECT_NE(a_id, b_id);
}

TEST_F(TransportTest, IdWrapAroundSkipsZero) {
  // Id 0 is reserved as "unassigned": wrapping past 0xFFFF must land on 1.
  transport_->set_next_id(0xFFFF);
  std::vector<std::uint16_t> ids;
  for (int i = 0; i < 2; ++i) {
    transport_->query(
        server_endpoint(),
        make_query(0, DnsName::must_parse("w.test"), RecordType::kA), {},
        [&](util::Result<Message> result, SimTime) {
          ASSERT_TRUE(result.ok());
          ids.push_back(result.value().header.id);
        });
    sim_.run();
  }
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], 0xFFFF);
  EXPECT_EQ(ids[1], 1);
}

TEST_F(TransportTest, ExponentialBackoffSpreadsRetries) {
  // timeout 100ms, factor 2: attempts at 0/100/300 ms, failure at 700 ms.
  server_->drop_first(100);
  bool done = false;
  auto options = std::make_shared<DnsTransport::Options>();
  options->timeout = SimTime::millis(100);
  options->max_retries = 2;
  options->backoff_factor = 2.0;
  transport_->query(
      server_endpoint(),
      make_query(0, DnsName::must_parse("x.test"), RecordType::kA), options,
      [&](util::Result<Message> result, SimTime rtt) {
        done = true;
        EXPECT_FALSE(result.ok());
        EXPECT_EQ(rtt, SimTime::millis(700));
      });
  sim_.run();
  EXPECT_TRUE(done);
}

TEST_F(TransportTest, BackoffRespectsCap) {
  server_->drop_first(100);
  bool done = false;
  auto options = std::make_shared<DnsTransport::Options>();
  options->timeout = SimTime::millis(100);
  options->max_retries = 3;
  options->backoff_factor = 10.0;
  options->max_backoff = SimTime::millis(150);
  // Timers: 100, then capped at 150 thrice -> failure at 550 ms.
  transport_->query(
      server_endpoint(),
      make_query(0, DnsName::must_parse("x.test"), RecordType::kA), options,
      [&](util::Result<Message> result, SimTime rtt) {
        done = true;
        EXPECT_FALSE(result.ok());
        EXPECT_EQ(rtt, SimTime::millis(550));
      });
  sim_.run();
  EXPECT_TRUE(done);
}

TEST_F(TransportTest, UncappedBackoffSaturatesInsteadOfOverflowing) {
  // Regression: an uncapped aggressive backoff (factor 10) used to multiply
  // the interval once per attempt with no bound — enough retries pushed the
  // double to +inf and the nanosecond cast into UB. The interval must
  // saturate at the one-hour ceiling and the transaction must complete.
  server_->drop_first(100);
  bool done = false;
  auto options = std::make_shared<DnsTransport::Options>();
  options->timeout = SimTime::millis(100);
  options->max_retries = 8;
  options->backoff_factor = 10.0;  // uncapped: max_backoff stays zero
  transport_->query(
      server_endpoint(),
      make_query(0, DnsName::must_parse("x.test"), RecordType::kA), options,
      [&](util::Result<Message> result, SimTime rtt) {
        done = true;
        EXPECT_FALSE(result.ok());
        // Intervals 0.1/1/10/100/1000 s, then four ticks pinned at the
        // 3600 s ceiling: the failure lands at exactly 15511.1 s.
        EXPECT_EQ(rtt, SimTime::millis(15511100));
      });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(server_->received(), 9);
  EXPECT_EQ(transport_->timeouts(), 1u);
}

TEST_F(TransportTest, IdExhaustionFailsFastInsteadOfSpinning) {
  // Regression: with all 65535 transaction ids in flight, the id allocator
  // used to hunt a free id forever. The 65536th query must fail fast with
  // an immediate (async, still never-reentrant) error.
  auto options = std::make_shared<DnsTransport::Options>();
  options->timeout = SimTime::seconds(30);  // keep every query in flight
  const Endpoint blackhole{Ipv4Address::must_parse("10.200.0.1"), kDnsPort};
  int errors = 0;
  for (int i = 0; i < 0xFFFF; ++i) {
    transport_->query(blackhole,
                      make_query(0, DnsName::must_parse("x.test"),
                                 RecordType::kA),
                      options,
                      [&](util::Result<Message> result, SimTime) {
                        if (!result.ok()) ++errors;
                      });
  }
  EXPECT_EQ(transport_->id_exhausted(), 0u);

  bool rejected = false;
  transport_->query(blackhole,
                    make_query(0, DnsName::must_parse("one-too-many.test"),
                               RecordType::kA),
                    options, [&](util::Result<Message> result, SimTime rtt) {
                      rejected = true;
                      EXPECT_FALSE(result.ok());
                      EXPECT_EQ(rtt, SimTime::zero());
                    });
  EXPECT_FALSE(rejected);  // delivered from the event loop, not re-entrantly
  sim_.run_until(sim_.now() + SimTime::millis(1));
  EXPECT_TRUE(rejected);
  EXPECT_EQ(transport_->id_exhausted(), 1u);
  EXPECT_EQ(errors, 0);  // the 65535 in-flight queries are still pending
}

TEST_F(TransportTest, DestroyedTransportDropsPendingIdExhaustionError) {
  // The error for a query refused for want of an id waits in a zero-delay
  // timer; destroying the transport first cancels it, so its callback
  // never runs (nor any of the in-flight queries' callbacks).
  auto options = std::make_shared<DnsTransport::Options>();
  options->timeout = SimTime::seconds(30);
  const Endpoint blackhole{Ipv4Address::must_parse("10.200.0.1"), kDnsPort};
  int calls = 0;
  for (int i = 0; i < 0xFFFF; ++i) {
    transport_->query(blackhole,
                      make_query(0, DnsName::must_parse("x.test"),
                                 RecordType::kA),
                      options,
                      [&](util::Result<Message>, SimTime) { ++calls; });
  }
  transport_->query(blackhole,
                    make_query(0, DnsName::must_parse("one-too-many.test"),
                               RecordType::kA),
                    options, [&](util::Result<Message>, SimTime) { ++calls; });
  ASSERT_EQ(transport_->id_exhausted(), 1u);
  transport_.reset();
  sim_.run();
  EXPECT_EQ(calls, 0);
  EXPECT_LT(sim_.now(), SimTime::seconds(30));  // no retry timer survived
}

TEST_F(TransportTest, FailsOverToFallbackServerOnTimeout) {
  // Primary never answers; the transaction must move to the fallback and
  // succeed instead of reporting a timeout.
  server_->drop_first(100);
  const simnet::NodeId backup_node =
      net_.add_node("backup", Ipv4Address::must_parse("10.0.0.4"));
  net_.add_link(client_node_, backup_node,
                LatencyModel::constant(SimTime::millis(2)));
  ScriptedServer backup(net_, backup_node);

  bool done = false;
  auto options = std::make_shared<DnsTransport::Options>();
  options->timeout = SimTime::millis(100);
  options->fallback_servers = {
      {Ipv4Address::must_parse("10.0.0.4"), kDnsPort}};
  transport_->query(
      server_endpoint(),
      make_query(0, DnsName::must_parse("x.test"), RecordType::kA), options,
      [&](util::Result<Message> result, SimTime) {
        done = true;
        EXPECT_TRUE(result.ok());
      });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(transport_->failovers(), 1u);
  EXPECT_EQ(backup.received(), 1);
}

TEST_F(TransportTest, ServfailFailsOverToFallback) {
  server_->respond_servfail(true);
  const simnet::NodeId backup_node =
      net_.add_node("backup", Ipv4Address::must_parse("10.0.0.4"));
  net_.add_link(client_node_, backup_node,
                LatencyModel::constant(SimTime::millis(2)));
  ScriptedServer backup(net_, backup_node);

  bool done = false;
  auto options = std::make_shared<DnsTransport::Options>();
  options->fallback_servers = {
      {Ipv4Address::must_parse("10.0.0.4"), kDnsPort}};
  transport_->query(
      server_endpoint(),
      make_query(0, DnsName::must_parse("x.test"), RecordType::kA), options,
      [&](util::Result<Message> result, SimTime) {
        done = true;
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(result.value().header.rcode, RCode::kNoError);
      });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(transport_->servfails(), 1u);
  EXPECT_EQ(transport_->failovers(), 1u);
}

TEST_F(TransportTest, ServfailDeliveredWithoutFallback) {
  // With no fallback server left, the last server's SERVFAIL is the answer.
  server_->respond_servfail(true);
  bool done = false;
  auto options = std::make_shared<DnsTransport::Options>();
  transport_->query(
      server_endpoint(),
      make_query(0, DnsName::must_parse("x.test"), RecordType::kA), options,
      [&](util::Result<Message> result, SimTime) {
        done = true;
        ASSERT_TRUE(result.ok());  // delivered, not retried
        EXPECT_EQ(result.value().header.rcode, RCode::kServFail);
      });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(transport_->servfails(), 1u);
  EXPECT_EQ(transport_->failovers(), 0u);
}

TEST_F(TransportTest, FailoverObserverSeesEachNewServerButNotTheLastServfail) {
  // Primary silent (timeout), first fallback SERVFAILs, second fallback
  // SERVFAILs too: the observer sees the moves to server 1 (timeout) and
  // server 2 (SERVFAIL), never the last server's SERVFAIL, which is
  // delivered.
  server_->drop_first(100);
  const simnet::NodeId b1 =
      net_.add_node("backup1", Ipv4Address::must_parse("10.0.0.4"));
  const simnet::NodeId b2 =
      net_.add_node("backup2", Ipv4Address::must_parse("10.0.0.5"));
  net_.add_link(client_node_, b1, LatencyModel::constant(SimTime::millis(2)));
  net_.add_link(client_node_, b2, LatencyModel::constant(SimTime::millis(2)));
  ScriptedServer backup1(net_, b1);
  ScriptedServer backup2(net_, b2);
  backup1.respond_servfail(true);
  backup2.respond_servfail(true);

  std::vector<std::pair<std::size_t, bool>> seen;
  auto options = std::make_shared<DnsTransport::Options>();
  options->timeout = SimTime::millis(100);
  options->fallback_servers = {
      {Ipv4Address::must_parse("10.0.0.4"), kDnsPort},
      {Ipv4Address::must_parse("10.0.0.5"), kDnsPort}};
  options->on_failover = [&](std::size_t index, bool servfail) {
    seen.emplace_back(index, servfail);
  };
  int calls = 0;
  std::size_t answered_by = 99;
  transport_->query(
      server_endpoint(),
      make_query(0, DnsName::must_parse("x.test"), RecordType::kA), options,
      [&](util::Result<Message> result, SimTime) {
        ++calls;
        answered_by = transport_->answered_by();
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(result.value().header.rcode, RCode::kServFail);
      });
  sim_.run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen, (std::vector<std::pair<std::size_t, bool>>{{1, false},
                                                             {2, true}}));
  EXPECT_EQ(answered_by, 2u);
  // Observed failovers are the observer's to count.
  EXPECT_EQ(transport_->failovers(), 0u);
  EXPECT_EQ(transport_->servfails(), 2u);
  EXPECT_EQ(transport_->timeouts(), 1u);
}

TEST_F(TransportTest, PrimaryAnswerReportsServerZeroAndNoFailover) {
  std::vector<std::size_t> seen;
  auto options = std::make_shared<DnsTransport::Options>();
  options->fallback_servers = {
      {Ipv4Address::must_parse("10.0.0.4"), kDnsPort}};
  options->on_failover = [&](std::size_t index, bool) {
    seen.push_back(index);
  };
  std::size_t answered_by = 99;
  transport_->query(
      server_endpoint(),
      make_query(0, DnsName::must_parse("x.test"), RecordType::kA), options,
      [&](util::Result<Message> result, SimTime) {
        EXPECT_TRUE(result.ok());
        answered_by = transport_->answered_by();
      });
  sim_.run();
  EXPECT_TRUE(seen.empty());
  EXPECT_EQ(answered_by, 0u);
}

}  // namespace
}  // namespace mecdns::dns

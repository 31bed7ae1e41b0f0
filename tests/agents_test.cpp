#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "agents/cxl_agent.hpp"
#include "agents/ethernet_agent.hpp"
#include "agents/genz_agent.hpp"
#include "agents/ib_agent.hpp"
#include "agents/nvmeof_agent.hpp"
#include "json/parse.hpp"
#include "json/pointer.hpp"
#include "json/serialize.hpp"
#include "ofmf/service.hpp"
#include "ofmf/uris.hpp"
#include "agents/port_publisher.hpp"
#include "http/server.hpp"
#include "redfish/conformance.hpp"

namespace ofmf::agents {
namespace {

using json::Json;
using json::Parse;
using ::testing::HasSubstr;

/// hostA -- sw0 -- sw1 -- memB, plus a backup trunk.
struct FabricWorld {
  fabricsim::FabricGraph graph;
  FabricWorld() {
    EXPECT_TRUE(graph.AddVertex("sw0", fabricsim::VertexKind::kSwitch, 8).ok());
    EXPECT_TRUE(graph.AddVertex("sw1", fabricsim::VertexKind::kSwitch, 8).ok());
    EXPECT_TRUE(graph.AddVertex("hostA", fabricsim::VertexKind::kDevice, 2).ok());
    EXPECT_TRUE(graph.AddVertex("memB", fabricsim::VertexKind::kDevice, 2).ok());
    EXPECT_TRUE(graph.Connect("hostA", 0, "sw0", 0).ok());
    EXPECT_TRUE(graph.Connect("sw0", 1, "sw1", 1).ok());
    EXPECT_TRUE(graph.Connect("sw0", 2, "sw1", 2).ok());
    EXPECT_TRUE(graph.Connect("sw1", 0, "memB", 0).ok());
  }
};

std::string Ep(const std::string& fabric, const std::string& name) {
  return core::FabricUri(fabric) + "/Endpoints/" + name;
}

// -------------------------------------------------------------- CXL agent ---

class CxlAgentTest : public ::testing::Test {
 protected:
  CxlAgentTest() : manager_(world_.graph) {
    EXPECT_TRUE(manager_.RegisterMemoryDevice("memB", 1024, 4).ok());
    EXPECT_TRUE(manager_.RegisterHost("hostA").ok());
    EXPECT_TRUE(ofmf_.Bootstrap().ok());
    EXPECT_TRUE(ofmf_.RegisterAgent(std::make_shared<CxlAgent>("CXL", manager_)).ok());
  }

  http::Response DoJson(http::Method method, const std::string& target, const Json& body) {
    return ofmf_.Handle(http::MakeJsonRequest(method, target, body));
  }

  FabricWorld world_;
  fabricsim::CxlFabricManager manager_;
  core::OfmfService ofmf_;
};

TEST_F(CxlAgentTest, InventoryPublished) {
  const Json fabric = *ofmf_.tree().Get(core::FabricUri("CXL"));
  EXPECT_EQ(fabric.GetString("FabricType"), "CXL");
  const Json host = *ofmf_.tree().Get(Ep("CXL", "hostA"));
  EXPECT_EQ(host.GetString("EndpointRole"), "Initiator");
  const Json target = *ofmf_.tree().Get(Ep("CXL", "memB"));
  EXPECT_EQ(target.GetString("EndpointRole"), "Target");
  EXPECT_EQ(target.at("ConnectedEntities").as_array().size(), 4u);  // 4 LDs
  EXPECT_TRUE(ofmf_.tree().Exists(core::FabricUri("CXL") + "/Switches/sw0"));
  // Registered with the AggregationService.
  EXPECT_TRUE(ofmf_.tree().Exists(std::string(core::kAggregationSources) +
                                  "/cxl-agent/CXL"));
}

TEST_F(CxlAgentTest, ConnectionBindsLogicalDeviceNatively) {
  const http::Response created = DoJson(
      http::Method::kPost, core::FabricUri("CXL") + "/Connections",
      Json::Obj({{"Name", "mem-attach"},
                 {"ConnectionType", "Memory"},
                 {"Links",
                  Json::Obj({{"InitiatorEndpoints",
                              Json::Arr({Json::Obj({{"@odata.id", Ep("CXL", "hostA")}})})},
                             {"TargetEndpoints",
                              Json::Arr({Json::Obj({{"@odata.id",
                                                     Ep("CXL", "memB")}})})}})}}));
  ASSERT_EQ(created.status, 201) << created.body;
  const std::string connection_uri = created.headers.GetOr("Location", "");

  // Native state changed: one LD bound, a decoder programmed.
  EXPECT_EQ(manager_.UnboundCapacityBytes(), 768u);
  EXPECT_EQ(manager_.ListDecoders("hostA").size(), 1u);
  const Json connection = *ofmf_.tree().Get(connection_uri);
  EXPECT_EQ(connection.at("MemoryChunkInfo").as_array()[0].GetInt("CapacityBytes"), 256);

  // DELETE unbinds natively.
  EXPECT_EQ(ofmf_.Handle(http::MakeRequest(http::Method::kDelete, connection_uri)).status,
            204);
  EXPECT_EQ(manager_.UnboundCapacityBytes(), 1024u);
  EXPECT_TRUE(manager_.ListDecoders("hostA").empty());
}

TEST_F(CxlAgentTest, ConnectionsExhaustLogicalDevices) {
  const Json body = Json::Obj(
      {{"Name", "attach"},
       {"ConnectionType", "Memory"},
       {"Links",
        Json::Obj({{"InitiatorEndpoints",
                    Json::Arr({Json::Obj({{"@odata.id", Ep("CXL", "hostA")}})})},
                   {"TargetEndpoints",
                    Json::Arr({Json::Obj({{"@odata.id", Ep("CXL", "memB")}})})}})}});
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(DoJson(http::Method::kPost, core::FabricUri("CXL") + "/Connections", body)
                  .status,
              201);
  }
  EXPECT_EQ(DoJson(http::Method::kPost, core::FabricUri("CXL") + "/Connections", body)
                .status,
            507);  // no unbound LD left
}

TEST_F(CxlAgentTest, LinkDownSurfacesAsAlertAndStatusChange) {
  auto sub = ofmf_.events().Subscribe(*Parse(
      R"({"Destination":"ofmf-internal://w","Protocol":"OEM","EventTypes":["Alert"]})"));
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(world_.graph.SetLinkUp("memB", 0, false).ok());
  auto events = ofmf_.events().Drain(*sub);
  ASSERT_TRUE(events.ok());
  ASSERT_GE(events->size(), 1u);
  // Endpoint status flipped in the tree.
  const Json endpoint = *ofmf_.tree().Get(Ep("CXL", "memB"));
  EXPECT_EQ(endpoint.at("Status").GetString("State"), "UnavailableOffline");
  // Link restoration flips it back.
  ASSERT_TRUE(world_.graph.SetLinkUp("memB", 0, true).ok());
  EXPECT_EQ(ofmf_.tree().Get(Ep("CXL", "memB"))->at("Status").GetString("State"),
            "Enabled");
}

TEST_F(CxlAgentTest, ZoneCreateAndDelete) {
  const http::Response created = DoJson(
      http::Method::kPost, core::FabricUri("CXL") + "/Zones",
      Json::Obj({{"Name", "z"},
                 {"Links", Json::Obj({{"Endpoints",
                                       Json::Arr({Json::Obj(
                                           {{"@odata.id", Ep("CXL", "hostA")}})})}})}}));
  ASSERT_EQ(created.status, 201);
  const std::string zone_uri = created.headers.GetOr("Location", "");
  EXPECT_EQ(ofmf_.Handle(http::MakeRequest(http::Method::kDelete, zone_uri)).status, 204);
}

TEST_F(CxlAgentTest, FabricItselfProtectedFromDelete) {
  EXPECT_EQ(
      ofmf_.Handle(http::MakeRequest(http::Method::kDelete, core::FabricUri("CXL"))).status,
      403);
}

TEST_F(CxlAgentTest, SwitchPortsPublishedWithPeers) {
  const std::string ports_uri = core::FabricUri("CXL") + "/Switches/sw0/Ports";
  const auto ports = ofmf_.tree().Members(ports_uri);
  ASSERT_TRUE(ports.ok());
  EXPECT_EQ(ports->size(), 3u);  // hostA uplink + two trunks
  const Json port0 = *ofmf_.tree().Get(PortUri(core::FabricUri("CXL"), "sw0", 0));
  EXPECT_EQ(port0.GetString("LinkStatus"), "LinkUp");
  EXPECT_EQ(port0.GetString("PortProtocol"), "CXL");
  EXPECT_EQ(port0.at("Oem").at("Ofmf").GetString("Peer"), "hostA");
  // The switch resource links its Ports collection.
  const Json sw = *ofmf_.tree().Get(core::FabricUri("CXL") + "/Switches/sw0");
  EXPECT_EQ(sw.at("Ports").GetString("@odata.id"), ports_uri);
}

TEST_F(CxlAgentTest, PortLinkStatusTracksGraph) {
  const std::string port_uri = PortUri(core::FabricUri("CXL"), "sw0", 1);
  EXPECT_EQ(ofmf_.tree().Get(port_uri)->GetString("LinkStatus"), "LinkUp");
  ASSERT_TRUE(world_.graph.SetLinkUp("sw0", 1, false).ok());
  const Json down = *ofmf_.tree().Get(port_uri);
  EXPECT_EQ(down.GetString("LinkStatus"), "LinkDown");
  EXPECT_EQ(down.at("Status").GetString("Health"), "Critical");
  ASSERT_TRUE(world_.graph.SetLinkUp("sw0", 1, true).ok());
  EXPECT_EQ(ofmf_.tree().Get(port_uri)->GetString("LinkStatus"), "LinkUp");
}

TEST_F(CxlAgentTest, SecondAgentForSameFabricRejected) {
  EXPECT_EQ(ofmf_.RegisterAgent(std::make_shared<CxlAgent>("CXL", manager_)).code(),
            ErrorCode::kAlreadyExists);
}

// --------------------------------------------------------------- IB agent ---

class IbAgentTest : public ::testing::Test {
 protected:
  IbAgentTest() : sm_(world_.graph) {
    EXPECT_TRUE(ofmf_.Bootstrap().ok());
    EXPECT_TRUE(ofmf_.RegisterAgent(std::make_shared<IbAgent>("IB", sm_)).ok());
  }
  http::Response DoJson(http::Method method, const std::string& target, const Json& body) {
    return ofmf_.Handle(http::MakeJsonRequest(method, target, body));
  }

  FabricWorld world_;
  fabricsim::IbSubnetManager sm_;
  core::OfmfService ofmf_;
};

TEST_F(IbAgentTest, InventorySplitsSwitchesAndEndpoints) {
  EXPECT_TRUE(ofmf_.tree().Exists(Ep("IB", "hostA")));
  EXPECT_TRUE(ofmf_.tree().Exists(Ep("IB", "memB")));
  EXPECT_TRUE(ofmf_.tree().Exists(core::FabricUri("IB") + "/Switches/sw0"));
  EXPECT_FALSE(ofmf_.tree().Exists(Ep("IB", "sw0")));
  // LIDs exposed via Oem.
  const Json endpoint = *ofmf_.tree().Get(Ep("IB", "hostA"));
  EXPECT_GT(endpoint.at("Oem").at("Ofmf").GetInt("Lid"), 0);
}

TEST_F(IbAgentTest, ZoneBecomesPartitionNatively) {
  const http::Response created = DoJson(
      http::Method::kPost, core::FabricUri("IB") + "/Zones",
      Json::Obj({{"Name", "job-zone"},
                 {"Links",
                  Json::Obj({{"Endpoints",
                              Json::Arr({Json::Obj({{"@odata.id", Ep("IB", "hostA")}}),
                                         Json::Obj({{"@odata.id",
                                                     Ep("IB", "memB")}})})}})}}));
  ASSERT_EQ(created.status, 201) << created.body;
  const std::string zone_uri = created.headers.GetOr("Location", "");
  const Json zone = *ofmf_.tree().Get(zone_uri);
  const auto pkey = static_cast<fabricsim::PKey>(zone.at("Oem").at("Ofmf").GetInt("PKey"));
  EXPECT_EQ(sm_.PartitionMembers(pkey).size(), 2u);

  // Deleting the zone removes the partition.
  EXPECT_EQ(ofmf_.Handle(http::MakeRequest(http::Method::kDelete, zone_uri)).status, 204);
  EXPECT_TRUE(sm_.PartitionMembers(pkey).empty());
}

TEST_F(IbAgentTest, ConnectionCarriesPathRecord) {
  const http::Response created = DoJson(
      http::Method::kPost, core::FabricUri("IB") + "/Connections",
      Json::Obj({{"Name", "rdma"},
                 {"ConnectionType", "Network"},
                 {"Links",
                  Json::Obj({{"InitiatorEndpoints",
                              Json::Arr({Json::Obj({{"@odata.id", Ep("IB", "hostA")}})})},
                             {"TargetEndpoints",
                              Json::Arr({Json::Obj({{"@odata.id",
                                                     Ep("IB", "memB")}})})}})}}));
  ASSERT_EQ(created.status, 201) << created.body;
  const Json connection = *Parse(created.body);
  EXPECT_GT(connection.at("Oem").at("Ofmf").GetDouble("LatencyNs"), 0.0);
  EXPECT_EQ(connection.at("Oem").at("Ofmf").GetInt("HopCount"), 4);
}

TEST_F(IbAgentTest, ConnectionWithQosReservation) {
  auto make_body = [&](double gbps) {
    return Json::Obj(
        {{"Name", "qos"},
         {"ConnectionType", "Network"},
         {"Links",
          Json::Obj({{"InitiatorEndpoints",
                      Json::Arr({Json::Obj({{"@odata.id", Ep("IB", "hostA")}})})},
                     {"TargetEndpoints",
                      Json::Arr({Json::Obj({{"@odata.id", Ep("IB", "memB")}})})}})},
         {"Oem", Json::Obj({{"Ofmf", Json::Obj({{"ReserveGbps", gbps}})}})}});
  };
  const http::Response created =
      DoJson(http::Method::kPost, core::FabricUri("IB") + "/Connections", make_body(80));
  ASSERT_EQ(created.status, 201) << created.body;
  const Json connection = *Parse(created.body);
  EXPECT_DOUBLE_EQ(connection.at("Oem").at("Ofmf").GetDouble("ReservedGbps"), 80.0);
  EXPECT_DOUBLE_EQ(world_.graph.CommittedGbps("hostA", 0), 80.0);

  // A second 80 Gbps ask exceeds the 100 Gbps uplink -> admission rejects.
  EXPECT_EQ(DoJson(http::Method::kPost, core::FabricUri("IB") + "/Connections",
                   make_body(80))
                .status,
            507);

  // Deleting the connection releases the reservation.
  const std::string uri = created.headers.GetOr("Location", "");
  EXPECT_EQ(ofmf_.Handle(http::MakeRequest(http::Method::kDelete, uri)).status, 204);
  EXPECT_DOUBLE_EQ(world_.graph.CommittedGbps("hostA", 0), 0.0);
  EXPECT_TRUE(world_.graph.Reservations().empty());
}

TEST_F(IbAgentTest, ConnectionFailsAcrossCutFabric) {
  ASSERT_TRUE(world_.graph.SetLinkUp("sw0", 1, false).ok());
  ASSERT_TRUE(world_.graph.SetLinkUp("sw0", 2, false).ok());
  const http::Response created = DoJson(
      http::Method::kPost, core::FabricUri("IB") + "/Connections",
      Json::Obj({{"Name", "rdma"},
                 {"ConnectionType", "Network"},
                 {"Links",
                  Json::Obj({{"InitiatorEndpoints",
                              Json::Arr({Json::Obj({{"@odata.id", Ep("IB", "hostA")}})})},
                             {"TargetEndpoints",
                              Json::Arr({Json::Obj({{"@odata.id",
                                                     Ep("IB", "memB")}})})}})}}));
  EXPECT_EQ(created.status, 404);  // no path record
}

TEST_F(IbAgentTest, SwitchPortsPublishedAndSynced) {
  const auto ports = ofmf_.tree().Members(core::FabricUri("IB") + "/Switches/sw1/Ports");
  ASSERT_TRUE(ports.ok());
  EXPECT_EQ(ports->size(), 3u);  // two trunks + memB uplink
  const std::string port_uri = PortUri(core::FabricUri("IB"), "sw1", 0);
  ASSERT_TRUE(world_.graph.SetLinkUp("sw1", 0, false).ok());
  EXPECT_EQ(ofmf_.tree().Get(port_uri)->GetString("LinkStatus"), "LinkDown");
}

TEST_F(IbAgentTest, TrapsUpdateEndpointStatus) {
  ASSERT_TRUE(world_.graph.SetLinkUp("hostA", 0, false).ok());
  EXPECT_EQ(ofmf_.tree().Get(Ep("IB", "hostA"))->at("Status").GetString("State"),
            "UnavailableOffline");
  ASSERT_TRUE(world_.graph.SetLinkUp("hostA", 0, true).ok());
  EXPECT_EQ(ofmf_.tree().Get(Ep("IB", "hostA"))->at("Status").GetString("State"),
            "Enabled");
}

// ----------------------------------------------------------- NVMe-oF agent ---

class NvmeofAgentTest : public ::testing::Test {
 protected:
  static constexpr const char* kNqn = "nqn.2026-01.org.ofmf:pool0";
  static constexpr const char* kHostNqn = "nqn.2026-01.org.ofmf:hostA";

  NvmeofAgentTest() : manager_(world_.graph) {
    EXPECT_TRUE(manager_.CreateSubsystem(kNqn, "memB").ok());
    EXPECT_TRUE(manager_.AddNamespace(kNqn, 1, 512).ok());
    EXPECT_TRUE(manager_.AddNamespace(kNqn, 2, 256).ok());
    EXPECT_TRUE(manager_.RegisterHostPort(kHostNqn, "hostA").ok());
    EXPECT_TRUE(ofmf_.Bootstrap().ok());
    EXPECT_TRUE(
        ofmf_.RegisterAgent(std::make_shared<NvmeofAgent>("NVMeoF", manager_)).ok());
  }
  http::Response DoJson(http::Method method, const std::string& target, const Json& body) {
    return ofmf_.Handle(http::MakeJsonRequest(method, target, body));
  }

  FabricWorld world_;
  fabricsim::NvmeofTargetManager manager_;
  core::OfmfService ofmf_;
};

TEST_F(NvmeofAgentTest, SwordfishInventoryPublished) {
  const std::string service_uri = std::string(core::kStorageServices) + "/NVMeoF";
  EXPECT_TRUE(ofmf_.tree().Exists(service_uri));
  const auto pools = ofmf_.tree().Members(service_uri + "/StoragePools");
  ASSERT_TRUE(pools.ok());
  ASSERT_EQ(pools->size(), 1u);
  const Json pool = *ofmf_.tree().Get((*pools)[0]);
  EXPECT_EQ(json::ResolvePointerRef(pool, "/Capacity/Data/AllocatedBytes")->as_int(), 768);
  const auto volumes = ofmf_.tree().Members(service_uri + "/Volumes");
  ASSERT_TRUE(volumes.ok());
  EXPECT_EQ(volumes->size(), 2u);  // one per namespace
  EXPECT_TRUE(ofmf_.tree().Exists(Ep("NVMeoF", kNqn)));
}

TEST_F(NvmeofAgentTest, ConnectionAllowsHostAndConnects) {
  const http::Response created = DoJson(
      http::Method::kPost, core::FabricUri("NVMeoF") + "/Connections",
      Json::Obj({{"Name", "nvme-attach"},
                 {"ConnectionType", "Storage"},
                 {"Oem", Json::Obj({{"Ofmf", Json::Obj({{"HostNqn", kHostNqn},
                                                        {"SubsystemNqn", kNqn}})}})}}));
  ASSERT_EQ(created.status, 201) << created.body;
  const auto controllers = manager_.ListControllers();
  ASSERT_EQ(controllers.size(), 1u);
  EXPECT_TRUE(controllers[0].connected);

  const std::string connection_uri = created.headers.GetOr("Location", "");
  EXPECT_EQ(ofmf_.Handle(http::MakeRequest(http::Method::kDelete, connection_uri)).status,
            204);
  EXPECT_FALSE(manager_.ListControllers()[0].connected);
}

// Requests reach an agent from whichever reactor worker runs them. Launchers
// attaching and detaching storage at once must each get their own
// controller, and every detach must release exactly what its attach took.
TEST_F(NvmeofAgentTest, ConcurrentAttachDetachOverTcpKeepsControllersDistinct) {
  http::TcpServer server;
  ASSERT_TRUE(server.Start(ofmf_.Handler(), 0).ok());
  constexpr int kLaunchers = 4;
  constexpr int kAttachesEach = 20;
  const Json body = Json::Obj(
      {{"Name", "nvme-attach"},
       {"ConnectionType", "Storage"},
       {"Oem", Json::Obj({{"Ofmf", Json::Obj({{"HostNqn", kHostNqn},
                                              {"SubsystemNqn", kNqn}})}})}});
  std::vector<std::vector<std::int64_t>> controllers(kLaunchers);
  std::vector<std::vector<std::string>> uris(kLaunchers);
  std::vector<int> failures(kLaunchers, 0);
  std::vector<std::thread> launchers;
  for (int l = 0; l < kLaunchers; ++l) {
    launchers.emplace_back([&, l] {
      http::TcpClient client(server.port());
      std::string previous;  // detach one attach behind, so POSTs meet DELETEs
      auto detach = [&](const std::string& uri) {
        auto deleted = client.Send(http::MakeRequest(http::Method::kDelete, uri));
        if (!deleted.ok() || deleted->status != 204) ++failures[l];
      };
      for (int i = 0; i < kAttachesEach; ++i) {
        auto created = client.Send(http::MakeJsonRequest(
            http::Method::kPost, core::FabricUri("NVMeoF") + "/Connections", body));
        if (!created.ok() || created->status != 201) {
          ++failures[l];
          continue;
        }
        auto doc = Parse(created->body.view());
        const Json* cntlid =
            doc.ok() ? json::ResolvePointerRef(*doc, "/VolumeInfo/0/ControllerId") : nullptr;
        if (cntlid == nullptr || !cntlid->is_int()) {
          ++failures[l];
          continue;
        }
        controllers[l].push_back(cntlid->as_int());
        uris[l].push_back(created->headers.GetOr("Location", ""));
        if (!previous.empty()) detach(previous);
        previous = uris[l].back();
      }
      if (!previous.empty()) detach(previous);
    });
  }
  for (auto& launcher : launchers) launcher.join();
  server.Stop();

  std::set<std::int64_t> distinct_controllers;
  std::set<std::string> distinct_uris;
  for (int l = 0; l < kLaunchers; ++l) {
    EXPECT_EQ(failures[l], 0) << "launcher " << l;
    distinct_controllers.insert(controllers[l].begin(), controllers[l].end());
    distinct_uris.insert(uris[l].begin(), uris[l].end());
  }
  constexpr std::size_t kTotal = kLaunchers * kAttachesEach;
  EXPECT_EQ(distinct_controllers.size(), kTotal);
  EXPECT_EQ(distinct_uris.size(), kTotal);
  // Nothing left behind: no connection resource, no live controller.
  const auto remaining = ofmf_.tree().Members(core::FabricUri("NVMeoF") + "/Connections");
  ASSERT_TRUE(remaining.ok());
  EXPECT_TRUE(remaining->empty());
  const auto native = manager_.ListControllers();
  EXPECT_EQ(native.size(), kTotal);
  for (const auto& controller : native) {
    EXPECT_FALSE(controller.connected) << "controller " << controller.cntlid;
  }
}

TEST_F(NvmeofAgentTest, ConnectionBodyValidated) {
  EXPECT_EQ(DoJson(http::Method::kPost, core::FabricUri("NVMeoF") + "/Connections",
                   Json::Obj({{"Name", "bad"}, {"ConnectionType", "Storage"}}))
                .status,
            400);
}

TEST_F(NvmeofAgentTest, PathLossBecomesAlert) {
  ASSERT_EQ(DoJson(http::Method::kPost, core::FabricUri("NVMeoF") + "/Connections",
                   Json::Obj({{"Name", "a"},
                              {"ConnectionType", "Storage"},
                              {"Oem", Json::Obj({{"Ofmf",
                                                  Json::Obj({{"HostNqn", kHostNqn},
                                                             {"SubsystemNqn",
                                                              kNqn}})}})}}))
                .status,
            201);
  auto sub = ofmf_.events().Subscribe(*Parse(
      R"({"Destination":"ofmf-internal://w","Protocol":"OEM","EventTypes":["Alert"]})"));
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(world_.graph.SetLinkUp("memB", 0, false).ok());
  auto events = ofmf_.events().Drain(*sub);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 1u);
  EXPECT_THAT(json::Serialize((*events)[0]), HasSubstr("PathLost"));
}

// ----------------------------------------------------------- Ethernet agent ---

class EthernetAgentTest : public ::testing::Test {
 protected:
  EthernetAgentTest() : manager_(world_.graph) {
    EXPECT_TRUE(ofmf_.Bootstrap().ok());
    std::map<std::string, std::pair<std::string, int>> uplinks{
        {"hostA", {"sw0", 0}}, {"memB", {"sw1", 0}}};
    EXPECT_TRUE(
        ofmf_.RegisterAgent(std::make_shared<EthernetAgent>("Eth", manager_, uplinks))
            .ok());
  }
  http::Response DoJson(http::Method method, const std::string& target, const Json& body) {
    return ofmf_.Handle(http::MakeJsonRequest(method, target, body));
  }

  FabricWorld world_;
  fabricsim::EthernetSwitchManager manager_;
  core::OfmfService ofmf_;
};

TEST_F(EthernetAgentTest, ZoneCreatesVlanWithMembership) {
  const http::Response created = DoJson(
      http::Method::kPost, core::FabricUri("Eth") + "/Zones",
      Json::Obj({{"Name", "tenant-a"},
                 {"Links",
                  Json::Obj({{"Endpoints",
                              Json::Arr({Json::Obj({{"@odata.id", Ep("Eth", "hostA")}}),
                                         Json::Obj({{"@odata.id",
                                                     Ep("Eth", "memB")}})})}})}}));
  ASSERT_EQ(created.status, 201) << created.body;
  const Json zone = *Parse(created.body);
  const auto vlan = static_cast<std::uint16_t>(zone.at("Oem").at("Ofmf").GetInt("VlanId"));
  EXPECT_TRUE(manager_.CanCommunicate(vlan, "hostA", "memB"));
  EXPECT_EQ(manager_.VlanPorts(vlan).size(), 2u);

  // Connection inside the VLAN succeeds...
  const http::Response connection = DoJson(
      http::Method::kPost, core::FabricUri("Eth") + "/Connections",
      Json::Obj({{"Name", "flow"},
                 {"ConnectionType", "Network"},
                 {"Links",
                  Json::Obj({{"InitiatorEndpoints",
                              Json::Arr({Json::Obj({{"@odata.id", Ep("Eth", "hostA")}})})},
                             {"TargetEndpoints",
                              Json::Arr({Json::Obj({{"@odata.id", Ep("Eth", "memB")}})})}})},
                 {"Oem", Json::Obj({{"Ofmf", Json::Obj({{"VlanId", vlan}})}})}}));
  EXPECT_EQ(connection.status, 201) << connection.body;

  // Deleting the zone deletes the VLAN.
  const std::string zone_uri = created.headers.GetOr("Location", "");
  EXPECT_EQ(ofmf_.Handle(http::MakeRequest(http::Method::kDelete, zone_uri)).status, 204);
  EXPECT_FALSE(manager_.CanCommunicate(vlan, "hostA", "memB"));
}

TEST_F(EthernetAgentTest, ZoneWithUnknownEndpointRollsBack) {
  const std::size_t vlans_before = manager_.Vlans().size();
  const http::Response created = DoJson(
      http::Method::kPost, core::FabricUri("Eth") + "/Zones",
      Json::Obj({{"Name", "bad"},
                 {"Links", Json::Obj({{"Endpoints",
                                       Json::Arr({Json::Obj(
                                           {{"@odata.id", Ep("Eth", "ghost")}})})}})}}));
  EXPECT_EQ(created.status, 404);
  EXPECT_EQ(manager_.Vlans().size(), vlans_before);  // VLAN rolled back
}

// -------------------------------------------------------------- Gen-Z agent ---

class GenzAgentTest : public ::testing::Test {
 protected:
  GenzAgentTest() : manager_(world_.graph) {
    requester_ =
        *manager_.EnumerateComponent("hostA", fabricsim::GenzComponentClass::kProcessor);
    responder_ =
        *manager_.EnumerateComponent("memB", fabricsim::GenzComponentClass::kMemory, 4096);
    EXPECT_TRUE(ofmf_.Bootstrap().ok());
    EXPECT_TRUE(ofmf_.RegisterAgent(std::make_shared<GenzAgent>("GenZ", manager_)).ok());
  }
  http::Response DoJson(http::Method method, const std::string& target, const Json& body) {
    return ofmf_.Handle(http::MakeJsonRequest(method, target, body));
  }

  FabricWorld world_;
  fabricsim::GenzFabricManager manager_;
  fabricsim::Cid requester_ = 0;
  fabricsim::Cid responder_ = 0;
  core::OfmfService ofmf_;
};

TEST_F(GenzAgentTest, InventoryCarriesCids) {
  const Json endpoint = *ofmf_.tree().Get(Ep("GenZ", "memB"));
  EXPECT_EQ(endpoint.GetString("EndpointRole"), "Target");
  EXPECT_EQ(endpoint.at("Oem").at("Ofmf").GetInt("Cid"),
            static_cast<std::int64_t>(responder_));
  EXPECT_EQ(endpoint.at("Oem").at("Ofmf").GetInt("MemoryBytes"), 4096);
}

TEST_F(GenzAgentTest, ConnectionCreatesRegionAndGrant) {
  const http::Response created = DoJson(
      http::Method::kPost, core::FabricUri("GenZ") + "/Connections",
      Json::Obj({{"Name", "fam"},
                 {"ConnectionType", "Memory"},
                 {"Oem",
                  Json::Obj({{"Ofmf",
                              Json::Obj({{"RequesterCid",
                                          static_cast<std::int64_t>(requester_)},
                                         {"ResponderCid",
                                          static_cast<std::int64_t>(responder_)},
                                         {"OffsetBytes", 0},
                                         {"LengthBytes", 2048}})}})}}));
  ASSERT_EQ(created.status, 201) << created.body;
  ASSERT_EQ(manager_.Regions().size(), 1u);
  const fabricsim::RKey rkey = manager_.Regions()[0].rkey;
  EXPECT_TRUE(manager_.CanAccess(rkey, requester_));

  const std::string connection_uri = created.headers.GetOr("Location", "");
  EXPECT_EQ(ofmf_.Handle(http::MakeRequest(http::Method::kDelete, connection_uri)).status,
            204);
  EXPECT_TRUE(manager_.Regions().empty());
}

TEST_F(GenzAgentTest, ConnectionValidation) {
  EXPECT_EQ(DoJson(http::Method::kPost, core::FabricUri("GenZ") + "/Connections",
                   Json::Obj({{"Name", "bad"}, {"ConnectionType", "Memory"}}))
                .status,
            400);
}

// -------------------------------------------- Multi-fabric aggregation ---

TEST(MultiFabricTest, SingleTreeSpansHeterogeneousFabrics) {
  FabricWorld cxl_world, ib_world;
  fabricsim::CxlFabricManager cxl(cxl_world.graph);
  ASSERT_TRUE(cxl.RegisterMemoryDevice("memB", 512, 2).ok());
  ASSERT_TRUE(cxl.RegisterHost("hostA").ok());
  fabricsim::IbSubnetManager ib(ib_world.graph);

  core::OfmfService ofmf;
  ASSERT_TRUE(ofmf.Bootstrap().ok());
  ASSERT_TRUE(ofmf.RegisterAgent(std::make_shared<CxlAgent>("CXL", cxl)).ok());
  ASSERT_TRUE(ofmf.RegisterAgent(std::make_shared<IbAgent>("IB", ib)).ok());

  // One Redfish tree, both fabrics, one client call.
  const http::Response fabrics =
      ofmf.Handle(http::MakeRequest(http::Method::kGet, core::kFabrics));
  const Json collection = *Parse(fabrics.body);
  EXPECT_EQ(collection.GetInt("Members@odata.count"), 2);
  EXPECT_TRUE(ofmf.AgentForFabric("CXL").ok());
  EXPECT_TRUE(ofmf.AgentForFabric("IB").ok());
  EXPECT_FALSE(ofmf.AgentForFabric("Ethernet").ok());
  // Two aggregation sources listed.
  const auto sources = ofmf.tree().Members(core::kAggregationSources);
  ASSERT_TRUE(sources.ok());
  EXPECT_EQ(sources->size(), 2u);
}

TEST(MultiFabricTest, FullyPopulatedTreeIsSchemaConformant) {
  FabricWorld cxl_world, ib_world;
  fabricsim::CxlFabricManager cxl(cxl_world.graph);
  ASSERT_TRUE(cxl.RegisterMemoryDevice("memB", 512, 2).ok());
  ASSERT_TRUE(cxl.RegisterHost("hostA").ok());
  fabricsim::IbSubnetManager ib(ib_world.graph);
  fabricsim::NvmeofTargetManager nvme(ib_world.graph);
  ASSERT_TRUE(nvme.CreateSubsystem("nqn.t:s0", "memB").ok());
  ASSERT_TRUE(nvme.AddNamespace("nqn.t:s0", 1, 4096).ok());

  core::OfmfService ofmf;
  ASSERT_TRUE(ofmf.Bootstrap().ok());
  ASSERT_TRUE(ofmf.RegisterAgent(std::make_shared<CxlAgent>("CXL", cxl)).ok());
  ASSERT_TRUE(ofmf.RegisterAgent(std::make_shared<IbAgent>("IB", ib)).ok());
  ASSERT_TRUE(ofmf.RegisterAgent(std::make_shared<NvmeofAgent>("NVMeoF", nvme)).ok());

  // Exercise mutations so audited state includes zones/connections/sessions.
  http::Request login = http::MakeJsonRequest(
      http::Method::kPost, core::kSessions,
      Json::Obj({{"UserName", "admin"}, {"Password", "ofmf"}}));
  ASSERT_EQ(ofmf.Handle(login).status, 201);
  ASSERT_TRUE(ofmf.events()
                  .Subscribe(*Parse(
                      R"({"Destination":"ofmf-internal://a","Protocol":"OEM"})"))
                  .ok());
  ASSERT_TRUE(ofmf.tasks().CreateTask("audit").ok());
  ASSERT_TRUE(ofmf.telemetry().PushReport("r", {{"X", 1.0, ""}}).ok());

  const redfish::ConformanceReport report =
      redfish::AuditTree(ofmf.tree(), redfish::SchemaRegistry::BuiltIn());
  EXPECT_GT(report.resources_checked, 30u);
  EXPECT_GT(report.resources_with_schema, 8u);
  for (const redfish::ConformanceIssue& issue : report.issues) {
    ADD_FAILURE() << issue.uri << issue.pointer << ": " << issue.message;
  }
  EXPECT_TRUE(report.clean());
}

}  // namespace
}  // namespace ofmf::agents

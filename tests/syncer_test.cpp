// Syncer-focused unit and integration tests: namespace mapping, conversions,
// vNode bookkeeping, fairness integration, race/failure injection, restart
// behaviour, and the periodic scan.
#include <gtest/gtest.h>

#include <functional>

#include "common/parallel_for.h"
#include "vc/crds.h"
#include "vc/deployment.h"

namespace vc::core {
namespace {

// ---------------------------------------------------------------- mapping

TEST(TenantMappingTest, PrefixFormatMatchesPaper) {
  // "the concatenation of the owner VC's object name and a short hash of the
  // object's UID" (§III-B (2)).
  TenantMapping m = TenantMapping::ForVc("acme", "uid-123");
  EXPECT_EQ(m.ns_prefix, "acme-" + ShortHash("uid-123"));
  EXPECT_EQ(m.SuperNamespace("default"), m.ns_prefix + "-default");
}

TEST(TenantMappingTest, InverseMapping) {
  TenantMapping m = TenantMapping::ForVc("acme", "uid-123");
  std::optional<std::string> back = m.TenantNamespace(m.SuperNamespace("prod"));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, "prod");
  EXPECT_FALSE(m.TenantNamespace("unrelated-ns").has_value());
  TenantMapping other = TenantMapping::ForVc("acme", "different-uid");
  EXPECT_FALSE(other.TenantNamespace(m.SuperNamespace("prod")).has_value());
}

TEST(TenantMappingTest, DistinctTenantsNeverCollide) {
  // Same namespace names across tenants map to distinct super namespaces.
  TenantMapping a = TenantMapping::ForVc("team", "uid-a");
  TenantMapping b = TenantMapping::ForVc("team", "uid-b");  // same VC name!
  EXPECT_NE(a.SuperNamespace("default"), b.SuperNamespace("default"));
}

// -------------------------------------------------------------- conversion

api::Pod TenantPod() {
  api::Pod p;
  p.meta.ns = "prod";
  p.meta.name = "web-0";
  p.meta.uid = "tenant-uid";
  p.meta.resource_version = 42;
  p.meta.finalizers = {"tenant.example.com/hook"};
  p.meta.owner_references = {{"ReplicaSet", "web", "rs-uid", true}};
  p.meta.labels = {{"app", "web"}};
  api::Container c;
  c.name = "app";
  c.image = "nginx";
  p.spec.containers.push_back(c);
  p.spec.node_name = "stale-node";
  p.status.phase = api::PodPhase::kRunning;
  return p;
}

TEST(ConversionTest, ToSuperRewritesIdentity) {
  TenantMapping m = TenantMapping::ForVc("acme", "uid-1");
  api::Pod shadow = ToSuper(m, TenantPod());
  EXPECT_EQ(shadow.meta.ns, m.SuperNamespace("prod"));
  EXPECT_EQ(shadow.meta.name, "web-0");
  EXPECT_TRUE(shadow.meta.uid.empty());
  EXPECT_EQ(shadow.meta.resource_version, 0);
  // Tenant-side controller relationships must not leak.
  EXPECT_TRUE(shadow.meta.finalizers.empty());
  EXPECT_TRUE(shadow.meta.owner_references.empty());
  // Super cluster owns scheduling and status.
  EXPECT_TRUE(shadow.spec.node_name.empty());
  EXPECT_EQ(shadow.status.phase, api::PodPhase::kPending);
  // Origin annotations present.
  EXPECT_EQ(shadow.meta.annotations.at(kTenantAnnotation), "acme");
  EXPECT_EQ(shadow.meta.annotations.at(kOriginNamespaceAnnotation), "prod");
  EXPECT_EQ(shadow.meta.annotations.at(kOriginUidAnnotation), "tenant-uid");
  // Labels preserved (they drive services/affinity in the super cluster).
  EXPECT_EQ(shadow.meta.labels.at("app"), "web");
}

TEST(ConversionTest, NamespaceNameIsMapped) {
  TenantMapping m = TenantMapping::ForVc("acme", "uid-1");
  api::NamespaceObj tenant_ns;
  tenant_ns.meta.name = "prod";
  tenant_ns.meta.uid = "ns-uid";
  api::NamespaceObj shadow = ToSuper(m, tenant_ns);
  EXPECT_EQ(shadow.meta.name, m.SuperNamespace("prod"));
  EXPECT_TRUE(shadow.meta.ns.empty());
  EXPECT_EQ(shadow.meta.annotations.at(kOriginNamespaceAnnotation), "prod");
}

TEST(ConversionTest, FingerprintIgnoresVolatileAndSuperOwnedFields) {
  TenantMapping m = TenantMapping::ForVc("acme", "uid-1");
  api::Pod tenant_pod = TenantPod();
  api::Pod shadow = ToSuper(m, tenant_pod);
  // Simulate super-side mutations the downward path must NOT fight:
  api::Pod mutated = shadow;
  mutated.meta.uid = "super-uid";
  mutated.meta.resource_version = 999;
  mutated.spec.node_name = "node-7";
  mutated.status.phase = api::PodPhase::kRunning;
  mutated.status.pod_ip = "10.32.0.5";
  EXPECT_TRUE(DownwardNormalize(shadow) == DownwardNormalize(mutated));
  // But a real spec change is detected.
  api::Pod drifted = mutated;
  drifted.spec.containers[0].image = "nginx:v2";
  EXPECT_FALSE(DownwardNormalize(shadow) == DownwardNormalize(drifted));
  // And a label change too.
  api::Pod relabeled = mutated;
  relabeled.meta.labels["app"] = "canary";
  EXPECT_FALSE(DownwardNormalize(shadow) == DownwardNormalize(relabeled));
}

TEST(ConversionTest, SyncerAnnotationsNeverFeedBack) {
  TenantMapping m = TenantMapping::ForVc("acme", "uid-1");
  api::Pod tenant_pod = TenantPod();
  api::Pod shadow = ToSuper(m, tenant_pod);
  // The upward path stamps the tenant pod; the downward comparison must not
  // see that as drift (otherwise: infinite sync loop).
  api::Pod stamped = tenant_pod;
  stamped.meta.annotations[kReadyAtAnnotation] = "12345";
  EXPECT_TRUE(DownwardNormalize(ToSuper(m, stamped)) == DownwardNormalize(shadow));
}

// The downward no-op check compares normalized structs, where it once
// compared their encodings. The two agree when the codec round-trips every
// field the struct holds (equal encodings then decode to equal structs, and
// equal structs always encode alike). Checked on a fully populated object of
// every synced kind, plus drifts that both comparisons must see and
// super-side changes that neither may see.
template <typename T>
void ExpectStructEqualityMatchesEncoding(const T& populated,
                                         const std::vector<std::function<void(T&)>>& drifts) {
  T stored = populated;
  stored.meta.resource_version = 0;  // stamped from the store revision, never encoded
  Result<T> back = api::Decode<T>(api::Encode(stored));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(*back == stored) << T::kKind << " codec drops a field: "
                               << api::Encode(stored) << " vs " << api::Encode(*back);
  const T norm = DownwardNormalize(populated);
  for (size_t i = 0; i < drifts.size(); ++i) {
    T drifted = populated;
    drifts[i](drifted);
    const T other = DownwardNormalize(drifted);
    EXPECT_FALSE(other == norm) << T::kKind << " drift " << i;
    EXPECT_NE(api::Encode(other), api::Encode(norm)) << T::kKind << " drift " << i;
  }
  T super_side = populated;
  super_side.meta.uid = "super-uid";
  super_side.meta.resource_version = 99;
  super_side.meta.finalizers.clear();
  super_side.meta.annotations[kOriginUidAnnotation] = "other";
  const T same = DownwardNormalize(super_side);
  EXPECT_TRUE(same == norm) << T::kKind;
  EXPECT_EQ(api::Encode(same), api::Encode(norm)) << T::kKind;
}

api::ObjectMeta PopulatedMeta(const std::string& ns, const std::string& name) {
  api::ObjectMeta m;
  m.ns = ns;
  m.name = name;
  m.uid = "uid-" + name;
  m.resource_version = 7;
  m.generation = 3;
  m.creation_timestamp_ms = 1000;
  m.deletion_timestamp_ms = 2000;
  m.labels = {{"app", "web"}, {"tier", "front"}};
  m.annotations = {{"note", "x"}, {kTenantAnnotation, "acme"}};
  m.finalizers = {"f/one"};
  m.owner_references = {{"ReplicaSet", "web", "rs-uid", true}};
  return m;
}

TEST(ConversionTest, StructEqualityMatchesEncodingForSyncedKinds) {
  api::Pod pod;
  pod.meta = PopulatedMeta("prod", "web-0");
  api::Container c;
  c.name = "app";
  c.image = "nginx";
  c.command = {"run", "--fast"};
  c.env = {{"K", "V"}};
  c.requests = {250, 64 << 20};
  c.limits = {500, 128 << 20};
  pod.spec.init_containers = {c};
  pod.spec.containers = {c};
  pod.spec.node_selector = {{"zone", "a"}};
  pod.spec.node_name = "node-1";
  pod.spec.tolerations = {{"k", api::Toleration::Op::kExists, "", "NoSchedule"}};
  api::PodAffinityTerm term;
  term.selector.match_labels = {{"app", "db"}};
  term.selector.match_expressions = {
      {"track", api::LabelSelectorRequirement::Op::kIn, {"stable", "canary"}}};
  term.topology_key = "zone";
  pod.spec.required_anti_affinity = {term};
  pod.spec.required_affinity = {term};
  pod.spec.runtime_class = "kata";
  pod.spec.service_account = "sa";
  pod.spec.hostname = "h";
  pod.spec.subdomain = "sub";
  pod.spec.volumes = {{"v", "sec", "", ""}, {"w", "", "cm", ""}, {"p", "", "", "claim"}};
  pod.spec.scheduler_name = "custom";
  pod.status.phase = api::PodPhase::kRunning;
  pod.status.pod_ip = "10.0.0.1";
  ExpectStructEqualityMatchesEncoding<api::Pod>(
      pod, {[](api::Pod& p) { p.spec.containers[0].image = "nginx:v2"; },
            [](api::Pod& p) { p.spec.containers[0].env[0].value = "W"; },
            [](api::Pod& p) { p.spec.containers[0].requests.cpu_milli = 300; },
            [](api::Pod& p) { p.spec.tolerations[0].op = api::Toleration::Op::kEqual; },
            [](api::Pod& p) { p.spec.required_affinity[0].topology_key = "rack"; },
            [](api::Pod& p) { p.spec.volumes[2].pvc_name = "other"; },
            [](api::Pod& p) { p.meta.labels["tier"] = "back"; },
            [](api::Pod& p) { p.meta.annotations["note"] = "y"; }});

  api::Service svc;
  svc.meta = PopulatedMeta("prod", "web");
  svc.spec.selector = {{"app", "web"}};
  svc.spec.ports = {{"http", 80, 8080, "TCP"}};
  svc.spec.cluster_ip = "10.96.0.10";
  svc.spec.type = "NodePort";
  ExpectStructEqualityMatchesEncoding<api::Service>(
      svc, {[](api::Service& s) { s.spec.ports[0].target_port = 9090; },
            [](api::Service& s) { s.spec.ports[0].protocol = "UDP"; },
            [](api::Service& s) { s.spec.cluster_ip = "None"; },
            [](api::Service& s) { s.spec.type = "ClusterIP"; }});

  api::Secret secret;
  secret.meta = PopulatedMeta("prod", "creds");
  secret.type = "kubernetes.io/tls";
  secret.data = {{"tls.crt", "abc"}, {"tls.key", "def"}};
  ExpectStructEqualityMatchesEncoding<api::Secret>(
      secret, {[](api::Secret& s) { s.data["tls.key"] = "xyz"; },
               [](api::Secret& s) { s.type = "Opaque"; }});

  api::ConfigMap cm;
  cm.meta = PopulatedMeta("prod", "conf");
  cm.data = {{"a", "1"}, {"b", ""}};
  ExpectStructEqualityMatchesEncoding<api::ConfigMap>(
      cm, {[](api::ConfigMap& m) { m.data["b"] = "2"; },
           [](api::ConfigMap& m) { m.data.erase("a"); }});

  api::ServiceAccount sa;
  sa.meta = PopulatedMeta("prod", "builder");
  sa.secrets = {"token-a", "token-b"};
  ExpectStructEqualityMatchesEncoding<api::ServiceAccount>(
      sa, {[](api::ServiceAccount& s) { s.secrets.pop_back(); }});

  api::PersistentVolumeClaim pvc;
  pvc.meta = PopulatedMeta("prod", "data");
  pvc.request_bytes = 1 << 30;
  pvc.storage_class = "fast";
  pvc.volume_name = "pv-1";
  pvc.phase = "Bound";
  ExpectStructEqualityMatchesEncoding<api::PersistentVolumeClaim>(
      pvc, {[](api::PersistentVolumeClaim& c) { c.request_bytes = 2 << 20; },
            [](api::PersistentVolumeClaim& c) { c.storage_class = "slow"; }});

  api::NamespaceObj ns;
  ns.meta = PopulatedMeta("", "prod");
  ns.phase = "Terminating";
  ExpectStructEqualityMatchesEncoding<api::NamespaceObj>(
      ns, {[](api::NamespaceObj& n) { n.meta.labels["env"] = "prod"; }});

  GpuJob job;
  job.meta = PopulatedMeta("prod", "train");
  job.replicas = 4;
  job.gpus_per_replica = 8;
  job.framework = "jax";
  job.queue = "batch";
  job.phase = "Running";
  job.ready_replicas = 4;
  job.scheduler_message = "placed";
  ExpectStructEqualityMatchesEncoding<GpuJob>(
      job, {[](GpuJob& j) { j.replicas = 2; }, [](GpuJob& j) { j.gpus_per_replica = 1; },
            [](GpuJob& j) { j.framework = "pytorch"; }, [](GpuJob& j) { j.queue = "q"; }});
}

TEST(ConversionTest, OriginRoundTrip) {
  TenantMapping m = TenantMapping::ForVc("acme", "uid-1");
  api::Pod shadow = ToSuper(m, TenantPod());
  std::optional<Origin> origin = OriginOf(shadow);
  ASSERT_TRUE(origin.has_value());
  EXPECT_EQ(origin->tenant_id, "acme");
  EXPECT_EQ(origin->tenant_ns, "prod");
  EXPECT_EQ(origin->tenant_uid, "tenant-uid");
  api::Pod foreign;
  foreign.meta.ns = "default";
  foreign.meta.name = "not-ours";
  EXPECT_FALSE(OriginOf(foreign).has_value());
}

// ------------------------------------------------------------ vNode manager

TEST(VNodeManagerTest, BindUnbindLifecycle) {
  VNodeManager vm;
  EXPECT_EQ(vm.Bind("t1", "node-1", "default/p0"), VNodeManager::BindResult::kNewVNode);
  EXPECT_EQ(vm.Bind("t1", "node-1", "default/p1"), VNodeManager::BindResult::kBound);
  EXPECT_EQ(vm.Bind("t1", "node-1", "default/p1"),
            VNodeManager::BindResult::kAlreadyBound);
  EXPECT_TRUE(vm.HasVNode("t1", "node-1"));
  EXPECT_EQ(vm.PodsOn("t1", "node-1"), 2u);
  EXPECT_EQ(vm.Unbind("t1", "node-1", "default/p0"), VNodeManager::UnbindResult::kUnbound);
  EXPECT_EQ(vm.Unbind("t1", "node-1", "default/p1"),
            VNodeManager::UnbindResult::kVNodeEmpty);
  EXPECT_FALSE(vm.HasVNode("t1", "node-1"));
  EXPECT_EQ(vm.Unbind("t1", "node-1", "default/p1"),
            VNodeManager::UnbindResult::kNotBound);
}

TEST(VNodeManagerTest, TenantsAreIndependent) {
  VNodeManager vm;
  vm.Bind("t1", "node-1", "a/p");
  vm.Bind("t2", "node-1", "a/p");
  EXPECT_EQ(vm.VNodeCount(), 2u);  // same physical node, two tenants
  EXPECT_EQ(vm.NodesOf("t1"), std::vector<std::string>{"node-1"});
  vm.ForgetTenant("t1");
  EXPECT_FALSE(vm.HasVNode("t1", "node-1"));
  EXPECT_TRUE(vm.HasVNode("t2", "node-1"));
}

// ------------------------------------------------------- syncer integration

VcDeployment::Options FastOptions() {
  VcDeployment::Options o;
  o.super.num_nodes = 2;
  o.super.sched_cost.per_pod_base = Micros(100);
  o.super.sched_cost.per_node_filter = Micros(1);
  o.super.sched_cost.per_resident_pod = std::chrono::nanoseconds(0);
  o.downward_op_cost = Micros(100);
  o.upward_op_cost = Micros(100);
  o.periodic_scan = false;
  o.local_provision_delay = Millis(1);
  return o;
}

api::Pod BasicPod(const std::string& ns, const std::string& name) {
  api::Pod p;
  p.meta.ns = ns;
  p.meta.name = name;
  api::Container c;
  c.name = "app";
  c.image = "nginx";
  p.spec.containers.push_back(c);
  return p;
}

TEST(SyncerIntegrationTest, NoFeedbackLoopAfterConvergence) {
  VcDeployment deploy(FastOptions());
  ASSERT_TRUE(deploy.Start().ok());
  ASSERT_TRUE(deploy.WaitForSync(Seconds(10)));
  auto tcp = deploy.CreateTenant("acme");
  ASSERT_TRUE(tcp.ok());
  TenantClient client(tcp->get());
  ASSERT_TRUE(client.Create(BasicPod("default", "web-0")).ok());
  ASSERT_TRUE(client.WaitPodReady("default", "web-0", Seconds(15)).ok());

  // Let the system settle, then verify mutation counters stop moving — the
  // steady state must be write-free (no downward/upward ping-pong).
  RealClock::Get()->SleepFor(Millis(400));
  SyncerMetrics& m = deploy.syncer().metrics();
  uint64_t down = m.downward_creates + m.downward_updates + m.downward_deletes;
  uint64_t up = m.upward_updates.load();
  RealClock::Get()->SleepFor(Millis(400));
  EXPECT_EQ(down, m.downward_creates + m.downward_updates + m.downward_deletes);
  EXPECT_EQ(up, m.upward_updates.load());
  deploy.Stop();
}

TEST(SyncerIntegrationTest, TenantSpecUpdatePropagatesDownward) {
  VcDeployment deploy(FastOptions());
  ASSERT_TRUE(deploy.Start().ok());
  auto tcp = deploy.CreateTenant("acme");
  ASSERT_TRUE(tcp.ok());
  TenantClient client(tcp->get());
  ASSERT_TRUE(client.Create(BasicPod("default", "web-0")).ok());
  ASSERT_TRUE(client.WaitPodReady("default", "web-0", Seconds(15)).ok());

  // Tenant relabels the pod; the shadow must follow.
  ASSERT_TRUE(apiserver::RetryUpdate<api::Pod>((*tcp)->server(), "default", "web-0",
                                               [](api::Pod& p) {
                                                 p.meta.labels["tier"] = "gold";
                                                 return true;
                                               })
                  .ok());
  TenantMapping map = deploy.syncer().MappingOf("acme");
  for (int i = 0; i < 3000; ++i) {
    Result<api::Pod> shadow =
        deploy.super().server().Get<api::Pod>(map.SuperNamespace("default"), "web-0");
    if (shadow.ok() && shadow->meta.labels.count("tier")) {
      EXPECT_EQ(shadow->meta.labels.at("tier"), "gold");
      // The super-owned fields survived the downward update.
      EXPECT_FALSE(shadow->spec.node_name.empty());
      EXPECT_TRUE(shadow->status.Ready());
      deploy.Stop();
      return;
    }
    RealClock::Get()->SleepFor(Millis(2));
  }
  deploy.Stop();
  FAIL() << "label change never propagated to the shadow";
}

TEST(SyncerIntegrationTest, RaceDeleteDuringCreationIsTolerated) {
  VcDeployment deploy(FastOptions());
  ASSERT_TRUE(deploy.Start().ok());
  auto tcp = deploy.CreateTenant("acme");
  ASSERT_TRUE(tcp.ok());
  TenantClient client(tcp->get());
  // Create and delete pods in quick succession to provoke the §III-C races
  // (update/delete events for objects already gone).
  for (int i = 0; i < 30; ++i) {
    std::string name = "flash-" + std::to_string(i);
    ASSERT_TRUE(client.Create(BasicPod("default", name)).ok());
    if (i % 2 == 0) {
      (void)client.Delete<api::Pod>("default", name);
    }
  }
  // Everything must converge: every surviving tenant pod ready, every
  // deleted pod's shadow gone.
  for (int i = 1; i < 30; i += 2) {
    Result<api::Pod> ready =
        client.WaitPodReady("default", "flash-" + std::to_string(i), Seconds(20));
    EXPECT_TRUE(ready.ok()) << "flash-" << i << ": " << ready.status();
  }
  TenantMapping map = deploy.syncer().MappingOf("acme");
  for (int i = 0; i < 30; i += 2) {
    std::string name = "flash-" + std::to_string(i);
    for (int tries = 0; tries < 5000; ++tries) {
      if (deploy.super()
              .server()
              .Get<api::Pod>(map.SuperNamespace("default"), name)
              .status()
              .IsNotFound()) {
        break;
      }
      RealClock::Get()->SleepFor(Millis(2));
    }
    EXPECT_TRUE(deploy.super()
                    .server()
                    .Get<api::Pod>(map.SuperNamespace("default"), name)
                    .status()
                    .IsNotFound())
        << name << " shadow leaked";
  }
  deploy.Stop();
}

TEST(SyncerIntegrationTest, ScanRepairsTamperedShadow) {
  VcDeployment deploy(FastOptions());
  ASSERT_TRUE(deploy.Start().ok());
  auto tcp = deploy.CreateTenant("acme");
  ASSERT_TRUE(tcp.ok());
  TenantClient client(tcp->get());
  ASSERT_TRUE(client.Create(BasicPod("default", "web-0")).ok());
  ASSERT_TRUE(client.WaitPodReady("default", "web-0", Seconds(15)).ok());

  // Tamper with the shadow's labels directly in the super cluster.
  TenantMapping map = deploy.syncer().MappingOf("acme");
  ASSERT_TRUE(apiserver::RetryUpdate<api::Pod>(
                  deploy.super().server(), map.SuperNamespace("default"), "web-0",
                  [](api::Pod& p) {
                    p.meta.labels["tampered"] = "true";
                    return true;
                  })
                  .ok());
  // The scan compares against the super informer's cache, so it can only see
  // the tampering once the informer has observed the update — unbounded under
  // sanitizers. Re-scan until a round resends instead of sleeping a fixed
  // interval (the event-driven upward path may also have repaired it already).
  bool drift_detected = false;
  for (int i = 0; i < 500 && !drift_detected; ++i) {
    Syncer::ScanRound round = deploy.syncer().ScanAllTenants();
    drift_detected = round.resent >= 1;
    if (!drift_detected) {
      Result<api::Pod> shadow = deploy.super().server().Get<api::Pod>(
          map.SuperNamespace("default"), "web-0");
      if (shadow.ok() && !shadow->meta.labels.count("tampered")) break;
      RealClock::Get()->SleepFor(Millis(10));
    }
  }
  for (int i = 0; i < 3000; ++i) {
    Result<api::Pod> shadow =
        deploy.super().server().Get<api::Pod>(map.SuperNamespace("default"), "web-0");
    if (shadow.ok() && !shadow->meta.labels.count("tampered")) {
      deploy.Stop();
      return;
    }
    RealClock::Get()->SleepFor(Millis(2));
  }
  deploy.Stop();
  FAIL() << "scan did not repair the tampered shadow";
}

TEST(SyncerIntegrationTest, ScanReapsOrphanShadows) {
  VcDeployment deploy(FastOptions());
  ASSERT_TRUE(deploy.Start().ok());
  auto tcp = deploy.CreateTenant("acme");
  ASSERT_TRUE(tcp.ok());
  TenantClient client(tcp->get());
  ASSERT_TRUE(client.Create(BasicPod("default", "real")).ok());
  ASSERT_TRUE(client.WaitPodReady("default", "real", Seconds(15)).ok());

  // Plant an orphan shadow (as if a tenant delete event was lost forever).
  TenantMapping map = deploy.syncer().MappingOf("acme");
  api::Pod orphan = BasicPod(map.SuperNamespace("default"), "orphan");
  orphan.meta.annotations[kTenantAnnotation] = "acme";
  orphan.meta.annotations[kOriginNamespaceAnnotation] = "default";
  orphan.meta.annotations[kOriginUidAnnotation] = "ghost-uid";
  // A syncer-created shadow always carries the tenant label (ToSuper stamps
  // it); without it the label-selected super reflector can't see the orphan.
  orphan.meta.labels[kTenantLabel] = "acme";
  ASSERT_TRUE(deploy.super().server().Create(orphan).ok());
  RealClock::Get()->SleepFor(Millis(100));

  Syncer::ScanRound round = deploy.syncer().ScanAllTenants();
  EXPECT_GE(round.resent, 1u);
  for (int i = 0; i < 3000; ++i) {
    if (deploy.super()
            .server()
            .Get<api::Pod>(map.SuperNamespace("default"), "orphan")
            .status()
            .IsNotFound()) {
      deploy.Stop();
      return;
    }
    RealClock::Get()->SleepFor(Millis(2));
  }
  deploy.Stop();
  FAIL() << "orphan shadow survived the scan";
}

TEST(SyncerIntegrationTest, CacheAccountingSeesBothCopies) {
  VcDeployment deploy(FastOptions());
  ASSERT_TRUE(deploy.Start().ok());
  auto tcp = deploy.CreateTenant("acme");
  ASSERT_TRUE(tcp.ok());
  TenantClient client(tcp->get());
  size_t before = deploy.syncer().InformerCacheObjects();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Create(BasicPod("default", "p" + std::to_string(i))).ok());
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.WaitPodReady("default", "p" + std::to_string(i), Seconds(20)).ok());
  }
  RealClock::Get()->SleepFor(Millis(200));
  size_t after = deploy.syncer().InformerCacheObjects();
  // Each pod is cached at least twice: tenant informer + super informer
  // (paper §IV-C memory analysis).
  EXPECT_GE(after - before, 20u);
  EXPECT_GT(deploy.syncer().InformerCacheBytes(), 0u);
  EXPECT_GT(ToSeconds(deploy.syncer().WorkerCpuTime()), 0.0);
  deploy.Stop();
}

TEST(SyncerIntegrationTest, DetachStopsSyncing) {
  VcDeployment deploy(FastOptions());
  ASSERT_TRUE(deploy.Start().ok());
  auto tcp = deploy.CreateTenant("acme");
  ASSERT_TRUE(tcp.ok());
  TenantClient client(tcp->get());
  ASSERT_TRUE(client.Create(BasicPod("default", "before")).ok());
  ASSERT_TRUE(client.WaitPodReady("default", "before", Seconds(15)).ok());

  deploy.syncer().DetachTenant("acme");
  ASSERT_TRUE(client.Create(BasicPod("default", "after")).ok());
  RealClock::Get()->SleepFor(Millis(300));
  TenantMapping map = TenantMapping{};  // detached: mapping gone
  EXPECT_TRUE(deploy.syncer().MappingOf("acme").tenant_id.empty());
  // The new pod must NOT appear in the super cluster.
  Result<apiserver::TypedList<api::Pod>> supers = deploy.super().server().List<api::Pod>();
  for (const api::Pod& p : supers->items) {
    EXPECT_NE(p.meta.name, "after");
  }
  (void)map;
  deploy.Stop();
}

// Concurrency stress for the shared-executor refactor (run under tsan by
// scripts/check.sh): 50 tenants attached and detached from racing threads
// while per-tenant scan timers fire at a tight interval. Exercises the
// attach-arms-timer / detach-cancels-timer paths against in-flight scans.
TEST(SyncerStressTest, AttachDetachWhileScansFire) {
  apiserver::APIServer super{apiserver::APIServer::Options{}};
  Syncer::Options so;
  so.super_server = &super;
  so.periodic_scan = true;
  so.scan_interval = Millis(5);
  so.heartbeat_broadcast_period = Millis(10);
  so.downward_op_cost = Duration::zero();
  so.upward_op_cost = Duration::zero();
  Syncer syncer(std::move(so));

  constexpr int kTenants = 50;
  std::vector<std::unique_ptr<TenantControlPlane>> tcps;
  std::vector<VirtualClusterObj> vcs;
  for (int t = 0; t < kTenants; ++t) {
    TenantControlPlane::Options to;
    to.tenant_id = "stress-" + std::to_string(t);
    to.run_controllers = false;
    tcps.push_back(std::make_unique<TenantControlPlane>(std::move(to)));
    tcps.back()->Start();
    VirtualClusterObj vc;
    vc.meta.ns = "default";
    vc.meta.name = "stress-" + std::to_string(t);
    vc.meta.uid = "uid-stress-" + std::to_string(t);
    vcs.push_back(vc);
    // A little content so scans have objects to walk.
    TenantClient client(tcps.back().get());
    ASSERT_TRUE(client.Create(BasicPod("default", "pod-a")).ok());
    ASSERT_TRUE(client.Create(BasicPod("default", "pod-b")).ok());
  }

  syncer.Start();
  // Initial attach of the full fleet, concurrently with running scans.
  ParallelFor(kTenants, [&](int t) {
    syncer.AttachTenant(vcs[static_cast<size_t>(t)], tcps[static_cast<size_t>(t)].get());
  });
  EXPECT_EQ(syncer.Tenants().size(), static_cast<size_t>(kTenants));
  RealClock::Get()->SleepFor(Millis(50));  // let scan timers fire a few rounds

  // Churn: two racing waves of detach + re-attach across the fleet.
  for (int round = 0; round < 2; ++round) {
    ParallelFor(kTenants, [&](int t) {
      const size_t i = static_cast<size_t>(t);
      syncer.DetachTenant(vcs[i].meta.name);
      if (t % 2 == round % 2) syncer.AttachTenant(vcs[i], tcps[i].get());
    });
    RealClock::Get()->SleepFor(Millis(20));
  }

  // Scans kept running throughout; a final explicit scan must still work.
  Syncer::ScanRound r = syncer.ScanAllTenants();
  EXPECT_LE(syncer.Tenants().size(), static_cast<size_t>(kTenants));
  (void)r;
  syncer.Stop();
  for (auto& tcp : tcps) tcp->Stop();
}

}  // namespace
}  // namespace vc::core

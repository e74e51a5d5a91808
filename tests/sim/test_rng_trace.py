"""Tests for RNG registries and the fabric's entries in the protocol log."""

from repro.sim import RngRegistry, derive_seed


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_streams_are_cached_and_independent():
    reg = RngRegistry(42)
    s1 = reg.stream("noise")
    s2 = reg.stream("noise")
    assert s1 is s2
    a = reg.stream("a").random(4).tolist()
    # Drawing from one stream must not perturb another.
    reg2 = RngRegistry(42)
    reg2.stream("b").random(100)
    assert reg2.stream("a").random(4).tolist() == a


def test_fabric_emits_to_trace():
    """Completed transfers reach the hub's protocol log through the
    fabric's hooks."""
    from repro.network import Cluster, ClusterSpec
    from repro.obs import Observability

    cluster = Cluster(ClusterSpec(n_nodes=4))
    assert cluster.fabric.obs is None
    obs = cluster.fabric.obs = Observability()

    def body():
        yield cluster.fabric.transfer(0, 1, 1024, label="p2p")
        yield cluster.fabric.multicast(0, [3, 1, 2], 64)

    cluster.env.process(body())
    cluster.run()
    (t_uni, *unicast), (t_multi, *multicast) = obs.events
    assert unicast == ["unicast", 0, 1, 1024, "p2p"]
    assert multicast == ["multicast", 0, (1, 2, 3), 64]
    assert 0 < t_uni < t_multi == cluster.env.now

"""The generated load is a pure function of the seed."""

import itertools
from dataclasses import replace

from perfbench import batch_rank, serve_sessions, stream_weekly
from repro.data.deltas import plan_deltas

DOMAINS = [f"site{i:04d}.com" for i in range(400)]


def _requests(seed, client, n=200):
    hot, unrequested = serve_sessions.split_domains(seed, DOMAINS)
    return list(
        itertools.islice(
            serve_sessions.schedule(seed, client, hot, unrequested[client]), n
        )
    )


def test_same_seed_same_schedule():
    assert _requests(3, 0) == _requests(3, 0)
    assert _requests(3, 1) == _requests(3, 1)
    assert _requests(3, 0) != _requests(4, 0)


def test_split_ignores_input_order():
    assert serve_sessions.split_domains(5, DOMAINS) == serve_sessions.split_domains(
        5, list(reversed(DOMAINS))
    )


def test_hit_ratio_is_fixed_by_construction():
    hot, unrequested = serve_sessions.split_domains(1, DOMAINS)
    hot_set = set(hot)
    seen = set()
    hits = lookups = 0
    for client in range(serve_sessions.CLIENTS):
        for request in itertools.islice(
            serve_sessions.schedule(1, client, hot, unrequested[client]), 100
        ):
            for domain in request.domains:
                lookups += 1
                if domain in hot_set:
                    hits += 1
                else:
                    assert domain not in seen, "an unrequested domain repeated"
                    seen.add(domain)
    assert hits / lookups == serve_sessions.constructed_hit_ratio() == 25 / 29


def test_clients_never_share_unrequested_domains():
    _, unrequested = serve_sessions.split_domains(2, DOMAINS)
    assert not set(unrequested[0]) & set(unrequested[1])


def test_schedule_ends_when_unrequested_domains_run_out():
    hot, unrequested = serve_sessions.split_domains(2, DOMAINS[:80])
    requests = list(serve_sessions.schedule(2, 0, hot, unrequested[0]))
    misses = sum(d not in hot for r in requests for d in r.domains)
    # It stops at the first request it cannot fill.
    assert len(unrequested[0]) - serve_sessions.BATCH_MISS < misses
    assert misses <= len(unrequested[0])


def test_generated_inputs_follow_the_seed():
    assert batch_rank.corpus_config(9) == batch_rank.corpus_config(9)
    assert batch_rank.corpus_config(9) != batch_rank.corpus_config(10)
    config = stream_weekly.generator_config(4)
    small = replace(stream_weekly.STREAM_CONFIG, n_ticks=6)
    assert plan_deltas(config, small) == plan_deltas(config, small)

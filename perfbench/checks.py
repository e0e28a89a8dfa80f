"""Independent output checks and their self-test.

Every check works on plain JSON-like data (a plan as ``column_plan`` /
``assignment`` / ``num_devices``, tables as ``table_id`` / ``hash_size``
/ ``dim``) and recomputes its answer with the benchmark's own
arithmetic: column splits are re-materialized here, device bytes are
``hash_size * dim * 4 + hash_size * 4`` per shard, and transferred bytes
are re-derived from the before/after placements.  None of them compares
against a stored copy of earlier output.  Each returns a list of error
strings (empty when the output is correct).

Run ``python3 perfbench/checks.py`` to self-test the checkers: each is
fed a valid output (which it must accept) and corrupted ones (which it
must reject).
"""

from __future__ import annotations

import sys

#: fp32 weights plus one fp32 row-wise optimizer slot per row.
WEIGHT_BYTES = 4
ROW_STATE_BYTES = 4
MIN_DIM = 4


def shard_list(base_tables, column_plan) -> list[tuple[int, int, int]]:
    """``(table_id, hash_size, dim)`` per shard after the column splits.

    A split at index ``i`` halves shard ``i`` in place and appends the
    other half (the plan convention of the paper's Algorithm 1).
    """
    shards = [
        (int(t["table_id"]), int(t["hash_size"]), int(t["dim"]))
        for t in base_tables
    ]
    for step, index in enumerate(column_plan):
        if not 0 <= index < len(shards):
            raise ValueError(f"split {step} names shard {index} of {len(shards)}")
        table_id, rows, dim = shards[index]
        half = dim // 2
        if half < MIN_DIM or half % MIN_DIM:
            raise ValueError(f"split {step} halves dim {dim} below {MIN_DIM}")
        shards[index] = (table_id, rows, half)
        shards.append((table_id, rows, half))
    return shards


def check_plan(plan, base_tables, expected_tables, memory_bytes) -> list[str]:
    """Legality of one plan over ``base_tables``.

    ``expected_tables`` is the workload the plan must serve, as the
    caller itself knows it; ``base_tables`` is the list the plan indexes
    (possibly already split).
    """
    try:
        shards = shard_list(base_tables, plan["column_plan"])
    except ValueError as exc:
        return [f"column plan: {exc}"]
    assignment = list(plan["assignment"])
    num_devices = int(plan["num_devices"])
    errors = []
    if len(assignment) != len(shards):
        errors.append(
            f"assignment places {len(assignment)} shards, plan has {len(shards)}"
        )
    expected = {
        int(t["table_id"]): (int(t["hash_size"]), int(t["dim"]))
        for t in expected_tables
    }
    dims: dict[int, int] = {}
    for table_id, rows, dim in shards:
        if table_id not in expected:
            errors.append(f"shard of unknown table {table_id}")
            continue
        if rows != expected[table_id][0]:
            errors.append(f"table {table_id} shard has {rows} rows")
        dims[table_id] = dims.get(table_id, 0) + dim
    for table_id, (_, dim) in expected.items():
        if dims.get(table_id, 0) != dim:
            errors.append(
                f"table {table_id} shards sum to dim {dims.get(table_id, 0)}, "
                f"not {dim}"
            )
    used = [0] * num_devices
    for (_, rows, dim), device in zip(shards, assignment):
        if not 0 <= device < num_devices:
            errors.append(f"shard on device {device} of {num_devices}")
            continue
        used[device] += rows * dim * WEIGHT_BYTES + rows * ROW_STATE_BYTES
    for device, total in enumerate(used):
        if total > memory_bytes:
            errors.append(
                f"device {device} holds {total} bytes, budget {memory_bytes}"
            )
    return errors


def _placement(plan, base_tables) -> dict[tuple[int, int, int], list[int]]:
    """Shard identity -> devices of its occurrences, in plan order."""
    placement: dict[tuple[int, int, int], list[int]] = {}
    shards = shard_list(base_tables, plan["column_plan"])
    for shard, device in zip(shards, plan["assignment"]):
        placement.setdefault(shard, []).append(int(device))
    return placement


def transferred_bytes(before_plan, before_tables, after_plan, after_tables) -> int:
    """Bytes that must land on a device to go from one placement to the
    other: the k-th occurrence of a shard before is matched to its k-th
    occurrence after; a matched shard that changes device moves, an
    unmatched new shard is created."""
    before = _placement(before_plan, before_tables)
    after = _placement(after_plan, after_tables)
    total = 0
    for (table_id, rows, dim), devices in after.items():
        old = before.get((table_id, rows, dim), [])
        for rank, device in enumerate(devices):
            if rank >= len(old) or old[rank] != device:
                total += rows * dim * WEIGHT_BYTES
    return total


def placement_held(before_plan, before_tables, after_plan, after_tables) -> bool:
    """Whether every shard keeps its device and no shard appears or goes."""
    return _placement(before_plan, before_tables) == _placement(
        after_plan, after_tables
    )


def check_transfer(before, after, reported_bytes: int) -> list[str]:
    """``before``/``after`` are ``(plan, base_tables)`` pairs."""
    expected = transferred_bytes(*before, *after)
    if expected != reported_bytes:
        return [f"diff reports {reported_bytes} bytes, placements imply {expected}"]
    return []


def check_stats_only(before, after, reported_bytes: int) -> list[str]:
    """A stats-only reshard that keeps the placement moves nothing."""
    if placement_held(*before, *after) and reported_bytes != 0:
        return [f"stats-only reshard held placement but moved {reported_bytes} bytes"]
    return []


def check_rollback(restored: dict, earlier: dict) -> list[str]:
    """Rollback must restore the earlier applied record unchanged."""
    if restored != earlier:
        return [
            f"rollback restored v{restored.get('version')}, "
            f"expected the earlier applied v{earlier.get('version')} unchanged"
        ]
    return []


def check_versions(versions) -> list[str]:
    versions = list(versions)
    if versions != list(range(1, len(versions) + 1)):
        return [f"versions are not contiguous from 1: {versions[:12]}..."]
    return []


def check_oracle(optimized, reference) -> list[str]:
    """``(column_plan, assignment, cost_ms)`` must match bit for bit."""
    if tuple(optimized[0]) != tuple(reference[0]) or tuple(optimized[1]) != tuple(
        reference[1]
    ):
        return ["optimized plan differs from the reference search"]
    if float(optimized[2]).hex() != float(reference[2]).hex():
        return [
            f"optimized cost {optimized[2]!r} differs from reference {reference[2]!r}"
        ]
    return []


def selftest() -> list[str]:
    """Feed every checker a valid output and corrupted ones.

    Returns the list of checker failures (empty when every valid output
    is accepted and every corruption rejected).
    """
    tables = [
        {"table_id": 1, "hash_size": 1000, "dim": 16},
        {"table_id": 2, "hash_size": 2000, "dim": 8},
        {"table_id": 3, "hash_size": 500, "dim": 32},
    ]
    # Shards: t1/8, t2/8, t3/32, t1/8 -> devices 0, 1, 1, 0:
    # 72_000 bytes on device 0, 138_000 on device 1.
    plan = {"column_plan": [0], "assignment": [0, 1, 1, 0], "num_devices": 2}
    budget = 140_000
    moved = {"column_plan": [0], "assignment": [1, 1, 1, 0], "num_devices": 2}
    record = {"version": 3, "plan": plan, "base_tables": tables}
    cases = [
        ("valid plan", check_plan(plan, tables, tables, budget), False),
        (
            "dropped shard",
            check_plan(
                {"column_plan": [0], "assignment": [0, 1, 1], "num_devices": 2},
                tables, tables, budget,
            ),
            True,
        ),
        (
            "dropped table",
            check_plan(
                {"column_plan": [], "assignment": [0, 1], "num_devices": 2},
                tables[:2], tables, budget,
            ),
            True,
        ),
        (
            "overfull device",
            check_plan(
                {"column_plan": [0], "assignment": [1, 1, 1, 1], "num_devices": 2},
                tables, tables, budget,
            ),
            True,
        ),
        (
            "device out of range",
            check_plan(
                {"column_plan": [0], "assignment": [0, 1, 2, 0], "num_devices": 2},
                tables, tables, budget,
            ),
            True,
        ),
        # t1's first half moves 0 -> 1: 1000 * 8 * 4 bytes.
        ("valid diff", check_transfer((plan, tables), (moved, tables), 32_000), False),
        (
            "diff with wrong bytes",
            check_transfer((plan, tables), (moved, tables), 32_004),
            True,
        ),
        ("held stats reshard", check_stats_only((plan, tables), (plan, tables), 0), False),
        (
            "held stats reshard moving bytes",
            check_stats_only((plan, tables), (plan, tables), 4096),
            True,
        ),
        ("valid rollback", check_rollback(dict(record), dict(record)), False),
        (
            "rollback to the wrong plan",
            check_rollback(dict(record, plan=moved), record),
            True,
        ),
        ("contiguous versions", check_versions([1, 2, 3]), False),
        ("version gap", check_versions([1, 2, 4]), True),
        ("oracle match", check_oracle(((0,), (1, 0), 1.5), ((0,), (1, 0), 1.5)), False),
        (
            "oracle cost off by one ulp",
            check_oracle(
                ((0,), (1, 0), 1.5), ((0,), (1, 0), 1.5000000000000002)
            ),
            True,
        ),
    ]
    failures = []
    for name, errors, should_reject in cases:
        if bool(errors) != should_reject:
            verdict = "accepted" if should_reject else f"rejected ({errors})"
            failures.append(f"checker self-test: {name} was {verdict}")
    return failures


if __name__ == "__main__":
    problems = selftest()
    for problem in problems:
        print(problem, file=sys.stderr)
    print("checker self-test:", "FAILED" if problems else "ok")
    sys.exit(1 if problems else 0)

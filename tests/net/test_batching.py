"""Unit tests of the micro-batcher: group commit, deadlines, error routing.

Most tests hold one batch in flight on a :class:`HeldRunner` so later
submits for the same release queue behind it, then release the hold and
check what the completion flush did with the queue.
"""

from __future__ import annotations

import asyncio
from typing import List

import pytest

from repro.exceptions import DeadlineExceededError
from repro.net.batching import MicroBatcher
from repro.serving.service import QueryRequest


class RecordingRunner:
    """Echoes each request back as its 'answer', recording every call."""

    def __init__(self):
        self.calls: List[tuple] = []

    async def __call__(self, requests, release_id):
        self.calls.append((list(requests), release_id))
        return list(requests)


class HeldRunner(RecordingRunner):
    """A :class:`RecordingRunner` whose first batch waits for ``release``."""

    def __init__(self):
        super().__init__()
        self.release = asyncio.Event()

    async def __call__(self, requests, release_id):
        self.calls.append((list(requests), release_id))
        if len(self.calls) == 1:
            await self.release.wait()
        return list(requests)


def run(coroutine):
    """``asyncio.run`` with a timeout, so a stuck queue fails instead of hanging."""
    return asyncio.run(asyncio.wait_for(coroutine, timeout=10.0))


def req(mask: int) -> QueryRequest:
    return QueryRequest(mask=mask)


def masks(call) -> List[int]:
    return [request.mask for request in call[0]]


async def hold(batcher, runner, release_id=None) -> "asyncio.Future":
    """Submit ``[req(0)]`` and return once its batch is inside the runner."""
    held = asyncio.ensure_future(batcher.submit([req(0)], release_id=release_id))
    while not runner.calls:
        await asyncio.sleep(0)
    return held


async def queue(batcher, *args, **kwargs) -> "asyncio.Future":
    """Start one submit and let it run up to its ``await``."""
    pending = asyncio.ensure_future(batcher.submit(*args, **kwargs))
    await asyncio.sleep(0)
    return pending


class TestMicroBatcher:
    def test_concurrent_submits_coalesce_into_one_runner_call(self):
        async def _run():
            runner = HeldRunner()
            batcher = MicroBatcher(runner, max_batch=100)
            held = await hold(batcher, runner)
            first = await queue(batcher, [req(1)])
            second = await queue(batcher, [req(2), req(3)])
            assert len(runner.calls) == 1  # both queued behind the held batch
            runner.release.set()
            return runner, await held, await first, await second

        runner, held, first, second = run(_run())
        assert len(runner.calls) == 2  # the held batch, then one grouped flush
        assert masks(runner.calls[1]) == [1, 2, 3]
        assert [r.mask for r in held] == [0]
        assert [r.mask for r in first] == [1]
        assert [r.mask for r in second] == [2, 3]

    def test_max_batch_flushes_immediately(self):
        async def _run():
            runner = HeldRunner()
            batcher = MicroBatcher(runner, max_batch=2)
            held = await hold(batcher, runner)
            # Two queries hit max_batch: they flush without waiting for
            # the in-flight batch to finish.
            answers = await asyncio.wait_for(
                batcher.submit([req(1), req(2)]), timeout=1.0
            )
            still_held = not held.done()
            runner.release.set()
            await held
            return answers, still_held

        answers, still_held = run(_run())
        assert [r.mask for r in answers] == [1, 2]
        assert still_held

    def test_lone_submit_reaches_the_runner_within_one_loop_tick(self):
        async def _run():
            runner = RecordingRunner()
            batcher = MicroBatcher(runner, max_batch=100)
            pending = await queue(batcher, [req(1)])
            # The idle release dispatched inside submit: no timer to wait on.
            assert batcher.stats()["flushes"] == 1
            await asyncio.sleep(0)
            assert len(runner.calls) == 1
            await pending
            await batcher.submit([req(2)])
            return runner

        runner = run(_run())
        assert len(runner.calls) == 2  # nothing coalesced, nothing delayed

    def test_expired_entries_fail_without_reaching_the_runner(self):
        async def _run():
            runner = HeldRunner()
            batcher = MicroBatcher(runner, max_batch=100)
            loop = asyncio.get_running_loop()
            held = await hold(batcher, runner)
            expired = await queue(batcher, [req(1)], deadline=loop.time() - 0.001)
            live = await queue(batcher, [req(2)], deadline=loop.time() + 60.0)
            runner.release.set()
            await held
            results = await asyncio.gather(expired, live, return_exceptions=True)
            return runner, results

        runner, (expired_result, live_result) = run(_run())
        assert isinstance(expired_result, DeadlineExceededError)
        assert [r.mask for r in live_result] == [2]
        # The expired request's queries were never aggregated.
        assert len(runner.calls) == 2
        assert masks(runner.calls[1]) == [2]

    def test_all_expired_skips_the_runner_entirely(self):
        async def _run():
            runner = HeldRunner()
            batcher = MicroBatcher(runner, max_batch=100)
            loop = asyncio.get_running_loop()
            held = await hold(batcher, runner)
            # Live when queued; expired by the time the held batch finishes.
            pending = await queue(batcher, [req(1)], deadline=loop.time() + 0.01)
            await asyncio.sleep(0.05)
            runner.release.set()
            await held
            with pytest.raises(DeadlineExceededError):
                await pending
            return runner, batcher.stats()

        runner, stats = run(_run())
        assert len(runner.calls) == 1  # only the held batch ran
        assert stats["flushes"] == 1

    def test_pinned_releases_flush_in_separate_groups(self):
        async def _run():
            runner = HeldRunner()
            batcher = MicroBatcher(runner, max_batch=100)
            held = await hold(batcher, runner, release_id="release-0001")
            pinned = [
                await queue(batcher, [req(1)], release_id="release-0001"),
                await queue(batcher, [req(2)], release_id=None),
                await queue(batcher, [req(3)], release_id="release-0001"),
            ]
            runner.release.set()
            await asyncio.gather(held, *pinned)
            return runner

        runner = run(_run())
        assert sorted((masks(call), str(call[1])) for call in runner.calls) == [
            ([0], "release-0001"),
            ([1, 3], "release-0001"),
            ([2], "None"),
        ]

    def test_batch_in_flight_for_one_release_does_not_hold_back_another(self):
        async def _run():
            runner = HeldRunner()
            batcher = MicroBatcher(runner, max_batch=100)
            held = await hold(batcher, runner, release_id="release-A")
            answers = await asyncio.wait_for(
                batcher.submit([req(1)], release_id="release-B"), timeout=1.0
            )
            still_held = not held.done()
            runner.release.set()
            await held
            return answers, still_held

        answers, still_held = run(_run())
        assert [r.mask for r in answers] == [1]
        assert still_held

    def test_runner_error_reaches_every_waiter(self):
        class Failing(HeldRunner):
            async def __call__(self, requests, release_id):
                await super().__call__(requests, release_id)
                raise RuntimeError("boom")

        async def _run():
            runner = Failing()
            batcher = MicroBatcher(runner, max_batch=100)
            held = await hold(batcher, runner)
            queued = [await queue(batcher, [req(1)]), await queue(batcher, [req(2)])]
            runner.release.set()
            results = await asyncio.gather(held, *queued, return_exceptions=True)
            return runner, results

        runner, results = run(_run())
        assert masks(runner.calls[1]) == [1, 2]  # the queued pair shared a batch
        assert all(isinstance(result, RuntimeError) for result in results)

    def test_next_submit_dispatches_at_once_after_a_runner_exception(self):
        class FailsOnce(RecordingRunner):
            async def __call__(self, requests, release_id):
                await super().__call__(requests, release_id)
                if len(self.calls) == 1:
                    raise RuntimeError("boom")
                return list(requests)

        async def _run():
            runner = FailsOnce()
            batcher = MicroBatcher(runner, max_batch=100)
            with pytest.raises(RuntimeError, match="boom"):
                await batcher.submit([req(1)])
            await asyncio.sleep(0)  # let the done-callback retire the batch
            assert batcher.stats()["inflight_batches"] == 0
            pending = await queue(batcher, [req(2)])
            assert batcher.stats()["flushes"] == 2  # dispatched, not queued
            return await asyncio.wait_for(pending, timeout=1.0)

        answers = run(_run())
        assert [r.mask for r in answers] == [2]

    def test_wrong_answer_count_is_an_error_not_a_hang(self):
        class Short:
            async def __call__(self, requests, release_id):
                return []

        async def _run():
            batcher = MicroBatcher(Short(), max_batch=100)
            with pytest.raises(RuntimeError, match="0 answers for 1 requests"):
                await batcher.submit([req(1)])

        run(_run())

    def test_drain_flushes_pending_queues(self):
        async def _run():
            runner = HeldRunner()
            batcher = MicroBatcher(runner, max_batch=100)
            held = await hold(batcher, runner)
            pending = await queue(batcher, [req(1)])
            draining = asyncio.ensure_future(batcher.drain())
            # drain() dispatches the queue without waiting for the held batch.
            answers = await asyncio.wait_for(pending, timeout=1.0)
            assert not draining.done()  # the held batch is still in flight
            runner.release.set()
            await asyncio.wait_for(draining, timeout=1.0)
            await held
            return answers

        answers = run(_run())
        assert [r.mask for r in answers] == [1]

    def test_drain_answers_entries_queued_behind_an_in_flight_batch(self):
        async def _run():
            runner = HeldRunner()
            batcher = MicroBatcher(runner, max_batch=100)
            held = await hold(batcher, runner)
            draining = asyncio.ensure_future(batcher.drain())
            await asyncio.sleep(0)
            # Queued after drain() flushed: the held batch's completion
            # callback dispatches it, and drain() must wait for that too.
            late = await queue(batcher, [req(1)])
            runner.release.set()
            await asyncio.wait_for(draining, timeout=1.0)
            assert late.done()
            assert batcher.stats()["inflight_batches"] == 0
            await held
            return late.result()

        answers = run(_run())
        assert [r.mask for r in answers] == [1]

    def test_stats_counts_flushes(self):
        async def _run():
            runner = HeldRunner()
            batcher = MicroBatcher(runner, max_batch=100)
            held = await hold(batcher, runner)
            queued = [
                await queue(batcher, [req(1), req(2)]),
                await queue(batcher, [req(3)]),
            ]
            assert batcher.stats()["inflight_batches"] == 1
            runner.release.set()
            await asyncio.gather(held, *queued)
            return batcher.stats()

        stats = run(_run())
        assert stats["flushes"] == 2
        assert stats["coalesced_requests"] == 4
        assert stats["mean_flush_size"] == 2.0
        assert stats["inflight_batches"] == 0
        assert "window_ms" not in stats

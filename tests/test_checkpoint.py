"""Checkpoint/resume: atomic JSONL snapshots, corrupt-file tolerance, and
bit-identical resume of killed tuning runs (ISSUE #1)."""

import json
import os
import warnings

import numpy as np
import pytest

from repro import optimize
from repro.__main__ import main as cli_main
from repro.explore import FlexTensorTuner, RandomSampleTuner
from repro.explore.network import MLP, decode_array, encode_array
from repro.model import V100
from repro.ops import conv2d_compute
from repro.runtime import (
    CHECKPOINT_VERSION,
    Evaluator,
    FaultInjector,
    MeasureConfig,
    load_checkpoint,
    save_checkpoint,
)
from repro.runtime.cache import EVALCACHE_FILENAME


def smoke_output():
    return conv2d_compute(1, 8, 8, 8, 16, 3, padding=1, name="c")


def smoke_evaluator(**kwargs):
    return Evaluator(smoke_output(), V100, **kwargs)


def digest(result):
    return (
        result.best_point, result.best_performance, result.exploration_seconds,
        result.num_measurements, result.curve,
    )


def parameters(network):
    return network.weights + network.biases


class TestCheckpointFile:
    def test_roundtrip_and_keep_limit(self, tmp_path):
        path = tmp_path / "run.ckpt"
        for i in range(5):
            save_checkpoint(path, {"trial": i}, keep=3)
        assert load_checkpoint(path)["trial"] == 4
        assert len(path.read_text().splitlines()) == 3
        assert load_checkpoint(path)["version"] == CHECKPOINT_VERSION

    def test_missing_file_is_none(self, tmp_path):
        assert load_checkpoint(tmp_path / "nope.ckpt") is None

    def test_corrupt_tail_falls_back_to_previous_snapshot(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, {"trial": 7})
        with open(path, "a") as f:
            f.write('{"trial": 8, "truncated-by-a-kill')
        with pytest.warns(UserWarning, match="corrupt checkpoint"):
            snapshot = load_checkpoint(path)
        assert snapshot["trial"] == 7

    def test_all_corrupt_is_none(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_text("garbage\n[1, 2]\n")
        with pytest.warns(UserWarning):
            assert load_checkpoint(path) is None

    def test_leftover_partial_tmp_file_is_ignored_and_overwritten(self, tmp_path):
        # A kill mid-write leaves a partial sibling ``.tmp`` file; the
        # real checkpoint must stay authoritative and the next save must
        # clobber the leftover, not append to it.
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, {"trial": 1})
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text('{"trial": 99, "killed-mid-wr')
        assert load_checkpoint(path)["trial"] == 1
        save_checkpoint(path, {"trial": 2})
        assert load_checkpoint(path)["trial"] == 2
        assert not tmp.exists()

    def test_final_file_truncated_mid_snapshot_falls_back(self, tmp_path):
        # Simulate a filesystem without atomic rename durability: the
        # newest snapshot line itself is cut in half.  Loading must fall
        # back to the previous intact snapshot, and the next save must
        # not be poisoned by the torn line.
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, {"trial": 1})
        save_checkpoint(path, {"trial": 2})
        data = path.read_text()
        path.write_text(data[: len(data) - len(data.splitlines()[-1]) // 2 - 1])
        with pytest.warns(UserWarning, match="corrupt checkpoint"):
            assert load_checkpoint(path)["trial"] == 1
        save_checkpoint(path, {"trial": 3})
        assert load_checkpoint(path)["trial"] == 3

    def test_binary_garbage_degrades_to_previous_snapshot(self, tmp_path):
        # Raw bytes from disk corruption must never raise out of the
        # loader (UnicodeDecodeError) — they are just another bad line.
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, {"trial": 5})
        with open(path, "ab") as f:
            f.write(b"\xff\xfe\x00garbage\x80\n")
        with pytest.warns(UserWarning):
            assert load_checkpoint(path)["trial"] == 5


class TestResumeDeterminism:
    def run_uninterrupted(self, tuner_cls, trials, **ev_kwargs):
        return tuner_cls(smoke_evaluator(**ev_kwargs), seed=7).tune(trials, num_seeds=3)

    def run_killed_then_resumed(self, tuner_cls, kill_at, trials, path, **ev_kwargs):
        # The killed run: checkpoints every trial, dies after ``kill_at``.
        killed = tuner_cls(smoke_evaluator(**ev_kwargs), seed=7)
        killed.tune(kill_at, num_seeds=3, checkpoint=path)
        # A fresh process: new tuner + evaluator, resumed from the file.
        resumed = tuner_cls(smoke_evaluator(**ev_kwargs), seed=7)
        return resumed.tune(trials, num_seeds=3, checkpoint=path, resume=True)

    def test_qmethod_resume_bit_identical(self, tmp_path):
        # Kill at trial 6 > train_period=5, so the resumed run carries
        # trained Q-network weights and optimizer state across the kill.
        full = self.run_uninterrupted(FlexTensorTuner, 10)
        resumed = self.run_killed_then_resumed(
            FlexTensorTuner, 6, 10, tmp_path / "q.ckpt"
        )
        assert resumed.best_point == full.best_point
        assert resumed.best_performance == full.best_performance
        assert resumed.exploration_seconds == full.exploration_seconds
        assert resumed.num_measurements == full.num_measurements
        assert resumed.curve == full.curve

    def test_qmethod_resume_bit_identical_under_faults(self, tmp_path):
        kwargs = dict(
            fault_injector=FaultInjector(
                transient_error_rate=0.3, hang_rate=0.05, jitter=0.1, seed=3
            ),
            measure_config=MeasureConfig(timeout_seconds=0.5),
        )
        full = self.run_uninterrupted(FlexTensorTuner, 8, **kwargs)
        resumed = self.run_killed_then_resumed(
            FlexTensorTuner, 4, 8, tmp_path / "qf.ckpt", **kwargs
        )
        assert resumed.best_point == full.best_point
        assert resumed.best_performance == full.best_performance
        assert resumed.exploration_seconds == full.exploration_seconds
        assert resumed.status_counts == full.status_counts

    def test_random_sample_resume_bit_identical(self, tmp_path):
        full = self.run_uninterrupted(RandomSampleTuner, 6)
        resumed = self.run_killed_then_resumed(
            RandomSampleTuner, 3, 6, tmp_path / "rs.ckpt"
        )
        assert resumed.best_point == full.best_point
        assert resumed.exploration_seconds == full.exploration_seconds

    def test_mismatched_tuner_checkpoint_starts_fresh(self, tmp_path):
        path = tmp_path / "mix.ckpt"
        RandomSampleTuner(smoke_evaluator(), seed=7).tune(2, num_seeds=2, checkpoint=path)
        with pytest.warns(UserWarning, match="written by tuner"):
            result = FlexTensorTuner(smoke_evaluator(), seed=7).tune(
                2, num_seeds=2, checkpoint=path, resume=True
            )
        assert result.found

    def test_resume_without_checkpoint_file_is_fresh_run(self, tmp_path):
        fresh = self.run_uninterrupted(RandomSampleTuner, 3)
        resumed = RandomSampleTuner(smoke_evaluator(), seed=7).tune(
            3, num_seeds=3, checkpoint=tmp_path / "never-written.ckpt", resume=True
        )
        assert resumed.best_point == fresh.best_point


class TestOptimizeWiring:
    def test_optimize_checkpoint_and_resume(self, tmp_path):
        path = tmp_path / "opt.ckpt"
        out = smoke_output()
        uninterrupted = optimize(out, V100, trials=6, seed=5)
        optimize(out, V100, trials=3, seed=5, checkpoint=path)
        assert load_checkpoint(path) is not None
        resumed = optimize(out, V100, trials=6, seed=5, checkpoint=path, resume=True)
        assert resumed.gflops == uninterrupted.gflops
        assert resumed.config == uninterrupted.config
        assert (
            resumed.tuning.exploration_seconds
            == uninterrupted.tuning.exploration_seconds
        )


class TestSnapshotFormat:
    """Version-2 snapshots: binary network arrays, no target network."""

    def test_array_codec_is_bit_exact(self):
        special = np.array([0.0, -0.0, 5e-324, -np.inf, np.inf, np.nan, np.pi, 1 / 3])
        arrays = [
            special,
            special.reshape(2, 4),
            np.zeros((0, 3)),
            np.random.default_rng(0).standard_normal((5, 7)),
        ]
        for array in arrays:
            restored = decode_array(json.loads(json.dumps(encode_array(array))))
            assert restored.shape == array.shape
            assert restored.dtype == np.float64
            assert restored.tobytes() == array.tobytes()
            restored[...] = 1.0    # a fresh, writable array

    def test_restored_network_trains_bit_identically(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 5))
        targets = rng.standard_normal((8, 3))
        mask = np.ones((8, 3))
        original = MLP(5, 3, hidden=6, seed=2)
        original.train_batch(x, targets, mask)
        restored = MLP(5, 3, hidden=6, seed=9)
        restored.set_state(json.loads(json.dumps(original.get_state())))
        assert original.train_batch(x, targets, mask) == restored.train_batch(x, targets, mask)
        for mine, theirs in zip(parameters(original), parameters(restored)):
            assert mine.tobytes() == theirs.tobytes()

    def test_target_network_equals_network_after_every_trial(self):
        tuner = FlexTensorTuner(smoke_evaluator(), seed=7)
        agent = tuner.agent
        checks = []
        end_trial = agent.end_trial

        def checked_end_trial():
            end_trial()
            checks.append(all(
                np.array_equal(mine, target)
                for mine, target in zip(
                    parameters(agent.network), parameters(agent.target_network)
                )
            ))

        agent.end_trial = checked_end_trial
        tuner.tune(12, num_seeds=3)    # two training rounds (train_period=5)
        assert agent.losses and checks == [True] * 12

        state = json.loads(json.dumps(agent.get_state()))
        assert "target_network" not in state
        fresh = FlexTensorTuner(smoke_evaluator(), seed=99).agent
        fresh.set_state(state)
        for mine, target in zip(parameters(agent.network), parameters(fresh.target_network)):
            assert np.array_equal(mine, target)

    def test_other_version_is_skipped_and_run_starts_fresh(self, tmp_path):
        path = tmp_path / "old.ckpt"
        RandomSampleTuner(smoke_evaluator(), seed=7).tune(3, num_seeds=3, checkpoint=path)
        snapshot = load_checkpoint(path)
        snapshot["version"] = 1
        path.write_text(json.dumps(snapshot) + "\n")
        with pytest.warns(UserWarning, match="version 1"):
            assert load_checkpoint(path) is None
        fresh = RandomSampleTuner(smoke_evaluator(), seed=7).tune(5, num_seeds=3)
        with pytest.warns(UserWarning, match="version 1"):
            resumed = RandomSampleTuner(smoke_evaluator(), seed=7).tune(
                5, num_seeds=3, checkpoint=path, resume=True
            )
        assert digest(resumed) == digest(fresh)


class TestCrashConsistency:
    """A torn final snapshot line, cut at every JSON token boundary."""

    @staticmethod
    def tuner():
        # One short walk per trial keeps the snapshot's point lists (and
        # so the number of cut positions) small; the Q-network is full
        # size and trained at trial 5.
        return FlexTensorTuner(smoke_evaluator(), seed=7, num_starting_points=1, steps=2)

    def test_every_token_boundary_falls_back_and_resumes(self, tmp_path):
        path = tmp_path / "q.ckpt"
        self.tuner().tune(6, num_seeds=2, checkpoint=path)
        data = path.read_bytes()
        intact = data[:-1].split(b"\n")
        last = intact[-1]
        start = len(data) - 1 - len(last)
        previous = json.loads(intact[-2])
        assert previous["trial"] == 5 and json.loads(last)["trial"] == 6
        assert previous["state"]["agent"]["losses"]    # trained weights

        cuts = {i for i, byte in enumerate(last) if byte in b',:"]}'}
        cuts.add(len(last) - 1)
        cuts = sorted(cuts, reverse=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for cut in cuts:
                os.truncate(path, start + cut)     # shrinking, so no rewrite
                assert load_checkpoint(path) == previous, cut
        corrupt = [w for w in caught if "corrupt checkpoint" in str(w.message)]
        assert len(corrupt) == len(cuts)

        full = self.tuner().tune(10, num_seeds=2)
        for cut in (cuts[0], cuts[len(cuts) // 2], cuts[-1]):
            path.write_bytes(data[: start + cut])
            with pytest.warns(UserWarning, match="corrupt checkpoint"):
                resumed = self.tuner().tune(10, num_seeds=2, checkpoint=path, resume=True)
            assert digest(resumed) == digest(full)


class TestSliceGrainCommits:
    def test_final_trial_is_always_snapshotted(self, tmp_path):
        path = tmp_path / "opt.ckpt"
        optimize(smoke_output(), V100, trials=7, seed=5, checkpoint=path, checkpoint_every=3)
        trials = [json.loads(line)["trial"] for line in path.read_text().splitlines()]
        assert trials == [3, 6, 7]
        assert load_checkpoint(path)["trial"] == 7

    def test_eval_cache_is_durable_before_every_checkpoint_write(self, tmp_path, monkeypatch):
        path = tmp_path / "run.ckpt"
        staging = path.with_name(path.name + ".tmp")
        cache_file = tmp_path / "cache" / EVALCACHE_FILENAME
        events = []
        real_fsync = os.fsync

        def cache_lines():
            return len(cache_file.read_text().splitlines()) if cache_file.exists() else 0

        def recording_fsync(fd):
            real_fsync(fd)
            inode = os.fstat(fd).st_ino
            if cache_file.exists() and inode == os.stat(cache_file).st_ino:
                events.append(("cache", cache_lines()))
            elif staging.exists() and inode == os.stat(staging).st_ino:
                events.append(("checkpoint", cache_lines()))

        monkeypatch.setattr(os, "fsync", recording_fsync)
        optimize(smoke_output(), V100, trials=5, seed=5, checkpoint=path,
                 cache_dir=str(tmp_path / "cache"))
        checkpoints = [i for i, (kind, _) in enumerate(events) if kind == "checkpoint"]
        assert len(checkpoints) == 5
        for index in checkpoints:
            synced = [lines for kind, lines in events[:index] if kind == "cache"]
            # Every cache line written so far was fsync'd before the snapshot.
            assert synced and synced[-1] == events[index][1]
        assert events[-1] == ("checkpoint", cache_lines())


@pytest.mark.faults
class TestCli:
    def test_selfcheck_faults_smoke(self, capsys):
        assert cli_main(["selfcheck", "--faults", "--trials", "2"]) == 0
        assert "selfcheck passed" in capsys.readouterr().out

    def test_cli_checkpoint_flag(self, tmp_path, capsys):
        path = tmp_path / "cli.ckpt"
        argv = ["gemm", "--n", "8", "--k", "8", "--m", "8",
                "--trials", "2", "--checkpoint", str(path)]
        assert cli_main(argv) == 0
        assert load_checkpoint(path) is not None
        assert cli_main(argv + ["--resume"]) == 0

"""Cost-structure assertions at the application level: the paper's
qualitative claims hold at arbitrary sizes, not just the benchmark's."""

import pytest

from repro.apps import docrank, lud, matmul, reduction
from repro.apps.common import merge_ledgers, reset_runtime_ledgers
from repro.runtime import device_matrix


class TestMovabilityTransferVolumes:
    def test_lud_matrix_crosses_once_with_mov(self):
        n = 16
        reset_runtime_ledgers()
        lud.run_actors(n, "GPU", movable=True)
        ledger = device_matrix().combined_ledger()
        matrix_bytes = n * n * 4
        assert ledger.bytes_to_device <= matrix_bytes + 64
        assert ledger.bytes_from_device <= matrix_bytes + 64
        assert ledger.kernel_launches == 3 * n

    def test_lud_without_mov_moves_per_hop(self):
        n = 16
        reset_runtime_ledgers()
        lud.run_actors(n, "GPU", movable=False)
        ledger = device_matrix().combined_ledger()
        matrix_bytes = n * n * 4
        # every kernel uploads the matrix; the two kernels that write it
        # read it back (the pivot kernel only writes the pivot cell)
        assert ledger.bytes_to_device >= 3 * n * matrix_bytes
        assert ledger.bytes_from_device >= 2 * n * matrix_bytes

    def test_docrank_corpus_uploaded_once_with_mov(self):
        ndocs, v, repeats = 32, 16, 6
        reset_runtime_ledgers()
        docrank.run_actors(ndocs, v, repeats, "GPU", movable=True)
        ledger = device_matrix().combined_ledger()
        corpus_bytes = ndocs * v * 4 + v * 4
        assert ledger.bytes_to_device <= corpus_bytes + 64
        assert ledger.kernel_launches == repeats

    def test_docrank_copy_variant_reuploads_per_repeat(self):
        ndocs, v, repeats = 32, 16, 6
        reset_runtime_ledgers()
        docrank.run_actors(ndocs, v, repeats, "GPU", movable=False)
        ledger = device_matrix().combined_ledger()
        corpus_bytes = ndocs * v * 4 + v * 4
        assert ledger.bytes_to_device >= repeats * corpus_bytes


def test_repeated_lud_runs_do_not_grow_the_runtime_queue():
    """The device matrix's queue and context live across runs; each run
    must leave behind neither event history nor device buffers."""
    sizes, breakdowns = [], []
    for _ in range(3):
        breakdowns.append(lud.run_actors(16).breakdown)
        sizes.append([
            (len(env.queue.events), len(env.context._buffers))
            for env in device_matrix().environments()
        ])
    assert sizes[0] == sizes[1] == sizes[2]
    assert breakdowns[0] == breakdowns[1] == breakdowns[2]


class TestApiCostShape:
    def test_matmul_api_transfer_volume_is_exact(self):
        n = 16
        outcome = matmul.run_api(n, "GPU")
        # a and b go up; c comes back; c is write-only (no upload).
        # (Volumes are embedded in the segments via the ledger merge.)
        assert outcome.segment("to_device") > 0
        assert outcome.segment("from_device") > 0

    def test_reduction_is_transfer_heavy_at_scale(self):
        outcome = reduction.run_api(4096, "GPU")
        # at default (unscaled) device specs a reduction moves far more
        # data than it computes
        assert outcome.segment("to_device") > outcome.segment("kernel") / 4

    def test_gpu_kernel_faster_than_cpu_kernel(self):
        from repro.opencl import find_device

        n = 24
        gpu_launch = find_device("GPU").spec.kernel_launch_ns
        cpu_launch = find_device("CPU").spec.kernel_launch_ns
        gpu = matmul.run_api(n, "GPU").segment("kernel") - gpu_launch
        cpu = matmul.run_api(n, "CPU").segment("kernel") - cpu_launch
        assert gpu < cpu


class TestEnsembleOverhead:
    def test_vm_overhead_exceeds_api_overhead(self):
        # Measured the way the figures are: on a bench platform whose
        # fixed costs (one-off compile, API calls) are scaled into the
        # paper-size regime, the VM interpretation dominates overhead.
        from repro.harness import scaled_devices

        n = 12
        with scaled_devices(0.08, 16.0):
            ens = matmul.run_ensemble(n, "GPU")
            api = matmul.run_api(n, "GPU")
        assert ens.segment("overhead") > api.segment("overhead")
        # but OpenCL actions match exactly
        assert ens.segment("to_device") == pytest.approx(
            api.segment("to_device")
        )
        assert ens.segment("from_device") == pytest.approx(
            api.segment("from_device")
        )

    def test_docrank_kernel_segment_larger_in_ensemble(self):
        args = (24, 12, 2)
        ens = docrank.run_ensemble(*args, "GPU")
        api = docrank.run_api(*args, "GPU")
        assert ens.segment("kernel") > api.segment("kernel")
        ens_comm = ens.segment("to_device") + ens.segment("from_device")
        api_comm = api.segment("to_device") + api.segment("from_device")
        assert ens_comm < api_comm

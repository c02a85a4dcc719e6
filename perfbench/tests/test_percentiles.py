"""The percentile rule and due-time latency accounting."""

import pytest

import loadgen
import run


@pytest.mark.parametrize("samples, level", [
    (10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 95.0),
    (200, 95.0), (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0),
    (39, 50.0), (20, 50.0),
])
def test_highest_percentile_with_ten_samples_beyond(samples, level):
    assert loadgen.tail_percentile(samples) == level


def test_too_few_samples_support_no_percentile():
    assert loadgen.tail_percentile(19) is None
    assert loadgen.tail_percentile(0) is None


def test_tails_are_printed_only_where_the_samples_support_them():
    assert set(run.tail_figures([1.0] * 39)) == set()
    assert set(run.tail_figures([1.0] * 199)) == {90.0}
    assert set(run.tail_figures([1.0] * 200)) == {95.0}
    assert set(run.tail_figures([1.0] * 1000)) == {95.0, 99.0}
    assert set(run.tail_figures([1.0] * 10_000)) == {95.0, 99.0, 99.9}


def test_nearest_rank_percentile():
    values = list(range(1, 1001))
    assert loadgen.percentile(values, 99) == 990
    assert loadgen.percentile(values, 50) == 500
    assert loadgen.percentile(reversed(values), 100) == 1000
    assert loadgen.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        loadgen.percentile([], 50)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class StallingConnection:
    """Answers in ``service`` seconds, except one request that stalls."""

    def __init__(self, clock, service, stall_at, stall):
        self.clock, self.service = clock, service
        self.stall_at, self.stall = stall_at, stall
        self.sent = 0

    def send(self, raw):
        self.clock.now += self.stall if self.sent == self.stall_at \
            else self.service
        self.sent += 1
        return 200, raw


def test_open_loop_charges_a_stall_to_every_request_it_delays():
    clock = FakeClock()
    conn = StallingConnection(clock, service=0.001, stall_at=5, stall=0.1)
    raws = [b"r%d" % i for i in range(40)]
    out = loadgen.open_loop([conn], raws, rate=100.0, clock=clock,
                            sleep=clock.sleep)
    latency = dict(zip(out.index, out.latency))
    late = dict(zip(out.index, out.late))
    assert latency[4] == pytest.approx(0.001)
    assert latency[5] == pytest.approx(0.1)
    # Request 6 was due 10 ms after request 5 but could only go out when
    # the stall ended, 90 ms late; the wait counts in its latency.
    assert late[6] == pytest.approx(0.09)
    assert latency[6] == pytest.approx(0.091)
    # The backlog drains one service time per request.
    assert latency[7] == pytest.approx(0.082)
    for index in range(6, 15):
        assert latency[index] > 0.001
    assert latency[20] == pytest.approx(0.001)
    # Timed from the send instead, every request but the stalled one
    # would look fast: the due-time p99 sees what that hides.
    assert loadgen.percentile(out.latency, 90) > 0.05


def test_open_loop_on_time_requests_are_not_late():
    clock = FakeClock()
    conn = StallingConnection(clock, service=0.001, stall_at=-1, stall=0)
    out = loadgen.open_loop([conn], [b"x"] * 10, rate=50.0, clock=clock,
                            sleep=clock.sleep)
    assert out.late == pytest.approx([0.0] * 10)
    assert out.latency == pytest.approx([0.001] * 10)


"""Clean fixture: the sanctioned counterparts of NRP008–NRP011.

Must produce zero findings — guards the rules' false-positive rate.
"""

import threading

from repro.resilience.atomic import atomic_write_text


class Tally:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.completed = 0  # nrplint: guarded-by=_lock
        self.last_error = ""

    def finish(self) -> None:
        with self._lock:
            self.completed += 1  # guarded rmw under its lock

    def note(self, message: str) -> None:
        self.last_error = message  # plain rebind: atomic, never flagged

    def snapshot(self) -> int:
        return self.completed  # reads are always legal


class Batcher:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.tally = Tally()
        self.pending: list = []

    def drain(self, q) -> list:
        batch = []
        while True:
            try:
                batch.append(q.get(timeout=0.01))  # bounded wait under no lock
            except IndexError:
                break
        with self.tally._lock:
            self.tally.completed += 1  # cross-object rmw under the owner's lock
        return batch

    def persist(self, sidecar_path, text: str) -> None:
        atomic_write_text(sidecar_path, text)  # the sanctioned durable writer

    def answer_batch(self, queries, deadline_s=None):
        return [self.answer_one(s, t, deadline_s=deadline_s) for s, t in queries]

    def answer_one(self, s, t, deadline_s=None):
        return (s, t, deadline_s)

"""Fixture: guarded-field writes outside the lock, blocking call inside."""

import threading
import time


class Stats:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0
        self._events = []

    def bump(self):
        self._count += 1

    def record(self, event):
        self._events.append(event)

    def reset(self):
        self._count, self._events = 0, []

    def snapshot(self):
        with self._lock:
            time.sleep(0.01)
            return self._count

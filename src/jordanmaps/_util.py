"""Small shared helpers: atomic file output, canonical JSON, digests."""

import hashlib
import json
import os
import tempfile

def canonical_json(obj):
    """Deterministic JSON text: sorted keys, stable separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def atomic_write_text(path, text):
    """Write text to `path` via a same-directory temp file and os.replace."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def sha256_digest(data):
    """Hex digest of bytes or str (str is encoded UTF-8)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()

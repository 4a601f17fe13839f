"""Deliberately clean flows: sanitizers break the taint."""

from __future__ import annotations

from repro.sanitizers import sanitizes


@sanitizes("*")
def tokenize(text):
    return [token for token in text.lower().split() if token.isalnum()]


@sanitizes("path")
def safe_name(name):
    return "".join(ch for ch in name if ch.isalnum())


def store_tokens(host):
    content = host.fetch("https://shop.example/index")
    tokens = tokenize(content)
    with open("out/" + tokens[0], "w") as fh:  # clean: tokenize() sanitized
        fh.write("ok")


def store_named(host, label):
    content = host.fetch("https://shop.example/index")
    with open("out/" + safe_name(content), "w") as fh:  # clean: path cleared
        fh.write(label)

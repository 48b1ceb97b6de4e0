import json
import socket
import struct
import threading
import time

import pytest

from flcore.cli import main


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "model": {"kind": "softmax", "input_dim": 2, "output_dim": 3},
        "algo": {
            "kind": "iiadmm",
            "rho": 2.0,
            "zeta": 0.5,
            "local_steps": 3,
            "batch_size": 16,
            "rounds": 5,
        },
        "privacy": {"enabled": True, "epsilon_bar": 10, "clip": 1.0},
        "data": {"source": "synthetic-blobs", "n": 120, "input_dim": 2, "classes": 3, "noise": 0.4},
        "run": {"clients": 2, "seed": 3},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def free_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


class TestSimulate:
    def test_writes_one_line_per_round(self, config_path, tmp_path):
        out = tmp_path / "m.jsonl"
        assert main(["simulate", "--config", config_path, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 5

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"algo": {"kind": "sgd"}}))
        assert main(["simulate", "--config", str(bad)]) == 2

    def test_uncoercible_value_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"algo": {"rounds": "ten"}}))
        assert main(["simulate", "--config", str(bad)]) == 2
        assert "algo.rounds" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["data.path", "data.images_path", "data.labels_path"])
    def test_missing_data_file_exits_2_naming_its_key(self, tmp_path, capsys, key):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">IIII", 0x803, 4, 1, 2) + bytes(range(8)))
        labels.write_bytes(struct.pack(">II", 0x801, 4) + bytes([0, 1, 0, 1]))
        # A malformed file exits 2 like a missing one, and keeps the loader's line or byte offset.
        malformed = tmp_path / "malformed"
        if key == "data.path":
            malformed.write_text("1,2,0\n1,x,1\n")
            where = f"{malformed}:2: non-numeric field"
        else:
            whole = (images if key == "data.images_path" else labels).read_bytes()
            malformed.write_bytes(whole[:-3])
            where = f"{malformed}: truncated at byte {len(whole) - 3}"
        cases = [(tmp_path / "missing", [str(tmp_path / "missing")]), (malformed, [where])]
        if key == "data.labels_path":  # 3 labels for the 4 images: the message names both files
            short = tmp_path / "three_labels.idx"
            short.write_bytes(struct.pack(">II", 0x801, 3) + bytes([0, 1, 0]))
            cases.append((short, [f"{short}: ", "mismatch", str(images)]))
        for bad, expected in cases:
            data = {"source": "csv" if key == "data.path" else "idx", "input_dim": 2,
                    "images_path": str(images), "labels_path": str(labels), key.split(".")[1]: str(bad)}
            path = tmp_path / "run.json"
            path.write_text(json.dumps({"model": {"kind": "softmax", "input_dim": 2, "output_dim": 2}, "data": data}))
            assert main(["simulate", "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert f"config error: {key}: " in err and all(text in err for text in expected)

    def test_parallel_flag_does_not_change_output(self, config_path, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["simulate", "--config", config_path, "--parallel", "false", "--out", str(a)]) == 0
        assert main(["simulate", "--config", config_path, "--parallel", "true", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_when_no_out(self, config_path, capsys):
        assert main(["simulate", "--config", config_path]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 5
        assert json.loads(lines[0])["round"] == 1

    def test_seed_override_changes_output(self, config_path, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["simulate", "--config", config_path, "--out", str(a)])
        main(["simulate", "--config", config_path, "--seed", "99", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_effective_config_echoed(self, config_path, capsys):
        main(["simulate", "--config", config_path])
        err = capsys.readouterr().err
        assert "effective config:" in err
        assert '"seed": 3' in err


class TestServeClient:
    @pytest.mark.parametrize(
        "command,flag,addr",
        [
            ("serve", "--bind", "127.0.0.1:abc"),
            ("serve", "--bind", "127.0.0.1:70000"),
            ("client", "--connect", "127.0.0.1:abc"),
            ("client", "--connect", "127.0.0.1:70000"),
        ],
    )
    def test_bad_port_is_named(self, config_path, capsys, command, flag, addr):
        extra = ["--client-id", "0"] if command == "client" else []
        assert main([command, flag, addr, "--config", config_path, *extra]) == 1
        assert f"address {addr!r} must look like HOST:PORT" in capsys.readouterr().err

    @pytest.mark.parametrize("timeout", ["nan", "inf"])
    def test_non_finite_timeout_exits_2(self, tmp_path, capsys, timeout):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"run": {"timeout_s": timeout}}))
        assert main(["serve", "--bind", "127.0.0.1:0", "--config", str(bad)]) == 2
        assert "run.timeout_s must be finite" in capsys.readouterr().err

    def test_tcp_run_matches_simulate(self, config_path, tmp_path):
        sim_out = tmp_path / "sim.jsonl"
        assert main(["simulate", "--config", config_path, "--out", str(sim_out)]) == 0

        port = free_port()
        tcp_out = tmp_path / "tcp.jsonl"
        results = {}

        def serve():
            results["serve"] = main(["serve", "--bind", f"127.0.0.1:{port}", "--config", config_path, "--out", str(tcp_out)])

        def client(cid):
            results[cid] = main(["client", "--connect", f"127.0.0.1:{port}", "--client-id", str(cid), "--config", config_path])

        server_thread = threading.Thread(target=serve)
        server_thread.start()
        client_threads = [threading.Thread(target=client, args=(cid,)) for cid in range(2)]
        for t in client_threads:
            t.start()
        server_thread.join(timeout=60.0)
        for t in client_threads:
            t.join(timeout=60.0)

        assert results["serve"] == 0 and results[0] == 0 and results[1] == 0
        assert tcp_out.read_bytes() == sim_out.read_bytes()

    def test_client_started_before_server(self, config_path, tmp_path):
        sim_out = tmp_path / "sim.jsonl"
        assert main(["simulate", "--config", config_path, "--out", str(sim_out)]) == 0

        port = free_port()
        tcp_out = tmp_path / "tcp.jsonl"
        results = {}

        def client(cid):
            results[cid] = main(["client", "--connect", f"127.0.0.1:{port}", "--client-id", str(cid), "--config", config_path])

        client_threads = [threading.Thread(target=client, args=(cid,)) for cid in range(2)]
        for t in client_threads:
            t.start()
        # The clients get refused until the server binds; they must retry.
        time.sleep(0.3)
        serve_args = ["serve", "--bind", f"127.0.0.1:{port}", "--config", config_path, "--out", str(tcp_out)]
        assert main(serve_args) == 0
        for t in client_threads:
            t.join(timeout=60.0)
            assert not t.is_alive()

        assert results == {0: 0, 1: 0}
        assert tcp_out.read_bytes() == sim_out.read_bytes()

    @pytest.mark.parametrize("client_id", ["-1", "2"])
    def test_client_id_out_of_range_exits_2_before_connecting(self, config_path, tmp_path, capsys, client_id):
        # No server listens on the port: a client that tried to connect would retry for run.timeout_s.
        cfg = json.loads(open(config_path).read())
        cfg["run"]["timeout_s"] = 10.0
        path = tmp_path / "timeout.json"
        path.write_text(json.dumps(cfg))
        start = time.monotonic()
        assert main(["client", "--connect", f"127.0.0.1:{free_port()}", "--client-id", client_id, "--config", str(path)]) == 2
        assert time.monotonic() - start < 5.0
        assert f"config error: client id {client_id} out of range for 2 clients" in capsys.readouterr().err

    def test_client_with_out_of_range_id_exits_nonzero(self, config_path, tmp_path):
        port = free_port()
        results = {}

        def serve():
            results["serve"] = main(["serve", "--bind", f"127.0.0.1:{port}", "--config", config_path, "--out", str(tmp_path / "x.jsonl")])

        server_thread = threading.Thread(target=serve)
        server_thread.start()

        assert main(["client", "--connect", f"127.0.0.1:{port}", "--client-id", "5", "--config", config_path]) == 2

        client_threads = [
            threading.Thread(
                target=lambda cid=cid: results.update({cid: main(["client", "--connect", f"127.0.0.1:{port}", "--client-id", str(cid), "--config", config_path])})
            )
            for cid in range(2)
        ]
        for t in client_threads:
            t.start()
        server_thread.join(timeout=60.0)
        for t in client_threads:
            t.join(timeout=60.0)
        assert results["serve"] == 0 and results[0] == 0 and results[1] == 0


class TestSweep:
    def test_sweep_table_and_csv(self, config_path, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--config", config_path, "--eps", "inf,10", "--seeds", "0,1", "--out", str(csv_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean_acc" in out and "inf" in out
        assert len(csv_path.read_text().splitlines()) == 1 + 4

    @pytest.mark.parametrize("eps, seeds, token", [("3,abc", "0", "abc"), ("3", "0,x", "x")], ids=["eps", "seeds"])
    def test_bad_list_token_exits_2(self, config_path, capsys, eps, seeds, token):
        assert main(["sweep", "--config", config_path, "--eps", eps, "--seeds", seeds]) == 2
        assert repr(token) in capsys.readouterr().err


class TestGradcheck:
    def test_all_models_pass(self, capsys):
        for model in ("linear-regression", "softmax", "mlp1"):
            assert main(["gradcheck", "--model", model, "--samples", "5"]) == 0
            assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,value", [("--batch", "-2"), ("--batch", "0"), ("--samples", "0"), ("--samples", "-3")])
    def test_non_positive_count_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--model", "softmax", flag, value])
        assert exc.value.code == 2
        assert f"{flag}: must be a positive integer, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    def test_tolerance_must_be_positive_and_finite(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--model", "softmax", "--samples", "2", f"--tol={value}"])  # "-inf" is no option
        assert exc.value.code == 2
        assert f"--tol: must be a positive finite number, got {value}" in capsys.readouterr().err


class TestUsage:
    def test_unknown_flag_rejected(self, config_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", config_path, "--bogus"])
        assert exc.value.code == 2

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "sub,flags",
        [
            ("simulate", ["--config", "--seed", "--out", "--parallel"]),
            ("serve", ["--bind", "--config", "--seed", "--out"]),
            ("client", ["--connect", "--client-id", "--config"]),
            ("sweep", ["--config", "--eps", "--seeds", "--out", "--parallel"]),
            ("gradcheck", ["--model", "--input-dim", "--output-dim", "--hidden-dim", "--samples", "--tol"]),
        ],
    )
    def test_help_lists_all_flags(self, sub, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        for flag in flags:
            assert flag in help_text

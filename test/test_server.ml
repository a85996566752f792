(* Job-server tests: scheduler semantics (backpressure, deadlines,
   drain-on-shutdown), protocol parsing, and the batch/serve contract —
   concurrent execution must give results identical to serial execution,
   one bad job must fail alone, and a warm cache must turn a repeated
   batch into all hits. *)

module S = Fsc_server.Scheduler
module Svc = Fsc_server.Service
module P = Fsc_driver.Pipeline
module Cc = Fsc_driver.Compile_cache
module B = Fsc_driver.Benchmarks
module J = Fsc_obs.Obs.Json

(* ---- scheduler ---- *)

let test_sched_completes () =
  let s = S.create ~workers:2 () in
  let tickets =
    List.init 8 (fun i ->
        match S.submit s (fun () -> i * i) with
        | Ok t -> t
        | Error _ -> Alcotest.fail "submit rejected")
  in
  List.iteri
    (fun i t ->
      match S.await t with
      | S.Done v -> Alcotest.(check int) "job result" (i * i) v
      | _ -> Alcotest.fail "job did not complete")
    tickets;
  S.shutdown s;
  let st = S.stats s in
  Alcotest.(check int) "submitted" 8 st.S.submitted;
  Alcotest.(check int) "completed" 8 st.S.completed

let test_sched_failure_isolated () =
  let s = S.create ~workers:1 () in
  let bad = Result.get_ok (S.submit s (fun () -> failwith "boom")) in
  let good = Result.get_ok (S.submit s (fun () -> 41 + 1)) in
  (match S.await bad with
  | S.Failed msg ->
    Alcotest.(check bool) "carries the exception" true (String.length msg > 0)
  | _ -> Alcotest.fail "expected Failed");
  (match S.await good with
  | S.Done 42 -> ()
  | _ -> Alcotest.fail "good job poisoned by bad one");
  S.shutdown s

let test_sched_queue_full () =
  let release = Atomic.make false in
  let block () =
    while not (Atomic.get release) do
      Unix.sleepf 0.001
    done
  in
  let s = S.create ~workers:1 ~queue_capacity:2 () in
  (* occupy the single worker, then fill the queue *)
  let running = Result.get_ok (S.submit s block) in
  (* wait until the worker has actually picked the blocker up *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while S.queue_depth s > 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  let q1 = Result.get_ok (S.submit s (fun () -> 1)) in
  let q2 = Result.get_ok (S.submit s (fun () -> 2)) in
  (match S.submit s (fun () -> 3) with
  | Error `Queue_full -> ()
  | Ok _ -> Alcotest.fail "expected Queue_full backpressure"
  | Error (`Shutting_down | `Quota_exceeded) ->
    Alcotest.fail "wrong rejection");
  Atomic.set release true;
  ignore (S.await running);
  ignore (S.await q1);
  ignore (S.await q2);
  S.shutdown s;
  Alcotest.(check int) "one rejection counted" 1 (S.stats s).S.rejected

let test_sched_deadline () =
  let s = S.create ~workers:1 () in
  (* a running job past its deadline: the awaiter resolves Timed_out
     and the worker's late result is discarded *)
  let slow =
    Result.get_ok
      (S.submit s ~deadline_s:0.05 (fun () ->
           Unix.sleepf 0.4;
           "late"))
  in
  (match S.await slow with
  | S.Timed_out -> ()
  | _ -> Alcotest.fail "running job should time out");
  (* a queued job past its deadline: the worker (still busy sleeping
     above) never runs it *)
  let queued =
    Result.get_ok (S.submit s ~deadline_s:0.05 (fun () -> "unreached"))
  in
  (match S.await queued with
  | S.Timed_out -> ()
  | _ -> Alcotest.fail "queued job should time out");
  (* outcomes are sticky *)
  (match S.await slow with
  | S.Timed_out -> ()
  | _ -> Alcotest.fail "outcome must be sticky");
  S.shutdown s;
  Alcotest.(check bool) "timeouts counted" true ((S.stats s).S.timed_out >= 2)

let test_sched_shutdown_drains () =
  let done_count = Atomic.make 0 in
  let s = S.create ~workers:2 () in
  let tickets =
    List.init 6 (fun _ ->
        Result.get_ok
          (S.submit s (fun () ->
               Unix.sleepf 0.02;
               Atomic.incr done_count)))
  in
  S.shutdown s;
  Alcotest.(check int) "every queued job ran" 6 (Atomic.get done_count);
  List.iter
    (fun t ->
      match S.await t with
      | S.Done () -> ()
      | _ -> Alcotest.fail "drained job must resolve Done")
    tickets;
  (match S.submit s (fun () -> ()) with
  | Error `Shutting_down -> ()
  | _ -> Alcotest.fail "submit after shutdown must be rejected");
  S.shutdown s (* idempotent *)

(* A single blocked worker makes dequeue order fully deterministic:
   everything below submits while the worker is parked, releases it,
   and then reads the completion log. *)
let with_blocked_worker ?queue_capacity f =
  let release = Atomic.make false in
  let block () =
    while not (Atomic.get release) do
      Unix.sleepf 0.001
    done
  in
  let s = S.create ~workers:1 ?queue_capacity () in
  let blocker = Result.get_ok (S.submit s block) in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while S.queue_depth s > 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  let log = ref [] in
  let log_mutex = Mutex.create () in
  let note tag () =
    Mutex.lock log_mutex;
    log := tag :: !log;
    Mutex.unlock log_mutex
  in
  let tickets = f s note in
  Atomic.set release true;
  ignore (S.await blocker);
  List.iter (fun t -> ignore (S.await t)) tickets;
  S.shutdown s;
  (s, List.rev !log)

let test_sched_fair_round_robin () =
  (* client a floods 6 jobs before b submits 2; round-robin still
     alternates them instead of running a's whole backlog first *)
  let _, order =
    with_blocked_worker (fun s note ->
        let submit c tag = Result.get_ok (S.submit s ~client:c (note tag)) in
        let ta = List.init 6 (fun i -> submit "a" (Printf.sprintf "a%d" i)) in
        let tb = List.init 2 (fun i -> submit "b" (Printf.sprintf "b%d" i)) in
        ta @ tb)
  in
  Alcotest.(check (list string))
    "weighted round-robin interleaves the flooded client"
    [ "a0"; "b0"; "a1"; "b1"; "a2"; "a3"; "a4"; "a5" ]
    order

let test_sched_client_weights () =
  let _, order =
    with_blocked_worker (fun s note ->
        S.configure_client s ~id:"a" ~weight:2 ();
        let submit c tag = Result.get_ok (S.submit s ~client:c (note tag)) in
        let ta = List.init 6 (fun i -> submit "a" (Printf.sprintf "a%d" i)) in
        let tb = List.init 2 (fun i -> submit "b" (Printf.sprintf "b%d" i)) in
        ta @ tb)
  in
  Alcotest.(check (list string))
    "weight 2 dequeues two of a's jobs per rotation visit"
    [ "a0"; "a1"; "b0"; "a2"; "a3"; "b1"; "a4"; "a5" ]
    order

let test_sched_quota () =
  let s, _ =
    with_blocked_worker (fun s note ->
        S.configure_client s ~id:"q" ~quota:2 ();
        let t1 = Result.get_ok (S.submit s ~client:"q" (note "q1")) in
        let t2 = Result.get_ok (S.submit s ~client:"q" (note "q2")) in
        (match S.submit s ~client:"q" (note "q3") with
        | Error `Quota_exceeded -> ()
        | Ok _ -> Alcotest.fail "third in-flight job must exceed quota 2"
        | Error _ -> Alcotest.fail "wrong rejection");
        (* another client is not affected by q's quota *)
        let t3 = Result.get_ok (S.submit s ~client:"other" (note "o1")) in
        [ t1; t2; t3 ])
  in
  let st = S.stats s in
  let q =
    List.find (fun c -> c.S.c_id = "q") st.S.clients
  in
  Alcotest.(check int) "quota rejection counted for q" 1 q.S.c_rejected;
  Alcotest.(check int) "q completed its admitted jobs" 2 q.S.c_completed

let test_sched_cancellation () =
  let release = Atomic.make false in
  let s = S.create ~workers:1 () in
  let blocker =
    Result.get_ok
      (S.submit s (fun () ->
           while not (Atomic.get release) do
             Unix.sleepf 0.001
           done))
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while S.queue_depth s > 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  let flag = Atomic.make false in
  let ran = Atomic.make false in
  let t =
    Result.get_ok
      (S.submit s
         ~cancelled:(fun () -> Atomic.get flag)
         (fun () -> Atomic.set ran true))
  in
  (* cancel while still queued, then let the worker reach it *)
  Atomic.set flag true;
  Atomic.set release true;
  (match S.await t with
  | S.Cancelled -> ()
  | _ -> Alcotest.fail "queued job must shed as Cancelled");
  ignore (S.await blocker);
  S.shutdown s;
  Alcotest.(check bool) "cancelled job never ran" false (Atomic.get ran);
  let st = S.stats s in
  Alcotest.(check int) "cancellation counted" 1 st.S.cancelled;
  Alcotest.(check bool) "counted as shed work" true (st.S.shed >= 1)

(* ---- protocol parsing ---- *)

let parse_err line =
  match Svc.parse_job ~index:0 line with
  | Error e -> e
  | Ok _ -> Alcotest.fail ("expected parse error for " ^ line)

let test_parse_job () =
  (match Svc.parse_job ~index:3 {|{"source": "program p\nend"}|} with
  | Ok j ->
    Alcotest.(check int) "id defaults to index" 3 j.Svc.j_id;
    Alcotest.(check bool) "target defaults to serial" true
      (j.Svc.j_target = P.Serial);
    Alcotest.(check bool) "action defaults to run" true
      (j.Svc.j_action = Svc.Run)
  | Error e -> Alcotest.fail e);
  (match
     Svc.parse_job ~index:0
       {|{"id": 9, "src": "x.f90", "threads": 4, "action": "compile"}|}
   with
  | Ok j ->
    Alcotest.(check int) "explicit id wins" 9 j.Svc.j_id;
    Alcotest.(check bool) "threads imply openmp" true
      (j.Svc.j_target = P.Openmp 4);
    Alcotest.(check bool) "compile action" true (j.Svc.j_action = Svc.Compile)
  | Error e -> Alcotest.fail e);
  (match Svc.parse_job ~index:0 {|{"src": "x.f90", "client": "team-a"}|} with
  | Ok j ->
    Alcotest.(check bool) "client field parsed" true
      (j.Svc.j_client = Some "team-a")
  | Error e -> Alcotest.fail e);
  ignore (parse_err "not json at all");
  ignore (parse_err {|{"action": "run"}|});
  ignore (parse_err {|{"src": "a", "source": "b"}|});
  ignore (parse_err {|{"src": "a", "target": "warp-drive"}|});
  ignore (parse_err {|{"src": "a", "target": "serial", "threads": 2}|});
  ignore (parse_err {|{"src": "a", "threads": 0}|});
  ignore (parse_err {|{"src": "a", "action": "shutdown"}|});
  ignore (parse_err {|{"src": "a", "action": "metrics"}|});
  Alcotest.(check bool) "shutdown control line" true
    (Svc.is_shutdown {|{"action": "shutdown"}|});
  Alcotest.(check bool) "jobs are not shutdown" false
    (Svc.is_shutdown {|{"src": "a"}|});
  Alcotest.(check bool) "metrics control line" true
    (Svc.is_metrics {|{"action": "metrics"}|});
  Alcotest.(check bool) "jobs are not metrics" false
    (Svc.is_metrics {|{"src": "a"}|})

(* ---- batch ---- *)

let job_line ?id ?target ?threads ?action source =
  let opt name f v = Option.to_list (Option.map (fun x -> (name, f x)) v) in
  J.to_string
    (J.Obj
       ([ ("source", J.Str source) ]
       @ opt "id" (fun i -> J.Num (float_of_int i)) id
       @ opt "target" (fun s -> J.Str s) target
       @ opt "threads" (fun i -> J.Num (float_of_int i)) threads
       @ opt "action" (fun s -> J.Str s) action))

let gs = B.gauss_seidel ~nx:8 ~ny:8 ~nz:8 ~niter:2 ()
let pw = B.pw_advection ~nx:8 ~ny:8 ~nz:8 ~niter:2 ()

(* 8 unique (program, target-kind) jobs — every target on both
   benchmark programs *)
let batch_lines =
  List.concat_map
    (fun src ->
      [ job_line ~target:"serial" src;
        job_line ~target:"openmp" ~threads:2 src;
        job_line ~target:"gpu-initial" src;
        job_line ~target:"gpu-optimised" src ])
    [ gs; pw ]

let field name line =
  match J.member name (J.of_string line) with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "result lacks %S: %s" name line)

let str_of = function
  | J.Str s -> s
  | v -> Alcotest.fail ("expected string, got " ^ J.to_string v)

(* Everything except the timing fields: what must be deterministic. *)
let fingerprint line =
  Printf.sprintf "%s|%s|%s|%s|%s|%s"
    (J.to_string (field "id" line))
    (str_of (field "src" line))
    (str_of (field "action" line))
    (str_of (field "target" line))
    (str_of (field "status" line))
    (J.to_string (field "checksums" line))

let test_batch_concurrent_equals_serial () =
  let concurrent = Svc.run_batch ~workers:2 batch_lines in
  let serial = Svc.run_batch ~workers:1 batch_lines in
  Alcotest.(check int)
    "one result per job"
    (List.length batch_lines)
    (List.length concurrent);
  Alcotest.(check (list string))
    "2-worker pool matches serial, in input order"
    (List.map fingerprint serial)
    (List.map fingerprint concurrent);
  List.iter
    (fun line ->
      Alcotest.(check string) "job ok" "ok" (str_of (field "status" line)))
    concurrent

let test_batch_bad_job_fails_alone () =
  let lines =
    [ job_line ~target:"serial" gs;
      job_line ~target:"serial" "program broken\n  this is not fortran";
      "this line is not even JSON";
      job_line ~target:"serial" pw ]
  in
  let results = Svc.run_batch ~workers:2 lines in
  let statuses = List.map (fun l -> str_of (field "status" l)) results in
  Alcotest.(check (list string))
    "bad jobs fail alone" [ "ok"; "error"; "error"; "ok" ] statuses;
  List.iteri
    (fun i line ->
      Alcotest.(check string)
        "results in input order" (string_of_int i)
        (J.to_string (field "id" line)))
    results

let test_batch_warm_cache_hits () =
  let dir = Filename.temp_file "fsc_server_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let cache = Cc.create_cache ~dir () in
  let cache_of line = str_of (field "cache" line) in
  let cold = Svc.run_batch ~cache ~workers:2 batch_lines in
  List.iter
    (fun l -> Alcotest.(check string) "cold is a miss" "miss" (cache_of l))
    cold;
  let warm = Svc.run_batch ~cache ~workers:2 batch_lines in
  List.iter
    (fun l -> Alcotest.(check string) "warm is a hit" "hit" (cache_of l))
    warm;
  Alcotest.(check (list string))
    "warm grids identical to cold"
    (List.map fingerprint cold)
    (List.map fingerprint warm)

(* A cancelled connection stops consuming pipeline phases: the first
   poll admits the compile, the second (at the compile->run boundary)
   sheds the job before it links or runs. *)
let test_execute_phase_cancellation () =
  let job =
    Result.get_ok (Svc.parse_job ~index:0 (job_line ~target:"serial" gs))
  in
  let polls = ref 0 in
  let should_cancel () =
    incr polls;
    !polls > 1
  in
  let r = Svc.execute ~should_cancel job in
  (match r.Svc.r_status with
  | Svc.Cancelled_ -> ()
  | _ -> Alcotest.fail "expected Cancelled_ between compile and run");
  Alcotest.(check bool) "compile phase ran" true (r.Svc.r_compile_ms > 0.);
  Alcotest.(check bool) "run phase skipped" true (r.Svc.r_checksums = []);
  (* cancelled before anything: no compile either *)
  let r2 = Svc.execute ~should_cancel:(fun () -> true) job in
  (match r2.Svc.r_status with
  | Svc.Cancelled_ -> ()
  | _ -> Alcotest.fail "expected Cancelled_ before compile");
  Alcotest.(check bool) "no compile happened" true (r2.Svc.r_compile_ms = 0.)

(* ---- serve ---- *)

let start_server ?cache ?(workers = 2) ?handlers ?queue_capacity
    ?default_quota () =
  let socket = Filename.temp_file "fsc_serve_test" ".sock" in
  Sys.remove socket;
  let server =
    Domain.spawn (fun () ->
        Svc.serve ?cache ~workers ?handlers ?queue_capacity ?default_quota
          ~socket ())
  in
  (* wait for the socket to appear, polling tightly so a client connects
     as early as the path allows *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Sys.file_exists socket)) && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  (socket, server)

let stop_server socket server =
  ignore (Svc.request ~socket [ {|{"action": "shutdown"}|} ]);
  Domain.join server

let test_serve_round_trip () =
  let socket = Filename.temp_file "fsc_serve_test" ".sock" in
  Sys.remove socket;
  let server = Domain.spawn (fun () -> Svc.serve ~workers:2 ~socket ()) in
  (* wait for the socket to appear *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Sys.file_exists socket)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  let jobs =
    [ job_line ~id:7 ~target:"serial" gs;
      job_line ~target:"openmp" ~threads:2 gs ]
  in
  let replies = Svc.request ~socket jobs in
  Alcotest.(check int) "one reply per job" 2 (List.length replies);
  List.iter
    (fun line ->
      Alcotest.(check string) "served job ok" "ok"
        (str_of (field "status" line)))
    replies;
  Alcotest.(check string) "explicit id echoed" "7"
    (J.to_string (field "id" (List.hd replies)));
  (* a second connection still works, then shutdown stops the server *)
  let final = Svc.request ~socket (jobs @ [ {|{"action": "shutdown"}|} ]) in
  Alcotest.(check int) "results plus shutdown ack" 3 (List.length final);
  Domain.join server;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket)

(* The head-of-line regression test: a client that connects and stalls
   (half a line, no newline, no EOF) must not block other clients. *)
let test_serve_stalled_client_not_blocking () =
  let socket, server = start_server ~workers:2 ~handlers:3 () in
  let stalled = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect stalled (Unix.ADDR_UNIX socket);
  ignore
    (Unix.write_substring stalled {|{"source|} 0 (String.length {|{"source|}));
  (* two clients make progress concurrently while the third stalls *)
  let c1 =
    Domain.spawn (fun () ->
        Svc.request ~socket [ job_line ~target:"serial" gs ])
  in
  let c2 =
    Domain.spawn (fun () ->
        Svc.request ~socket [ job_line ~target:"serial" pw ])
  in
  let r1 = Domain.join c1 in
  let r2 = Domain.join c2 in
  List.iter
    (fun replies ->
      Alcotest.(check int) "one reply" 1 (List.length replies);
      Alcotest.(check string) "served around the stalled client" "ok"
        (str_of (field "status" (List.hd replies))))
    [ r1; r2 ];
  (try Unix.close stalled with Unix.Unix_error _ -> ());
  stop_server socket server

let test_serve_metrics () =
  let socket, server = start_server ~workers:1 () in
  let replies =
    Svc.request ~socket
      [ job_line ~target:"serial" gs; {|{"action": "metrics"}|} ]
  in
  Alcotest.(check int) "job reply plus metrics reply" 2 (List.length replies);
  let metrics = J.of_string (List.nth replies 1) in
  Alcotest.(check string) "typed as metrics" "metrics"
    (str_of (Option.get (J.member "type" metrics)));
  let sched = Option.get (J.member "scheduler" metrics) in
  (match J.member "submitted" sched with
  | Some (J.Num n) ->
    Alcotest.(check bool) "job visible in scheduler totals" true (n >= 1.)
  | _ -> Alcotest.fail "scheduler.submitted missing");
  (match J.member "clients" metrics with
  | Some (J.Obj ((_, _) :: _)) -> ()
  | _ -> Alcotest.fail "per-client stats missing");
  Alcotest.(check bool) "queue depth present" true
    (J.member "queue_depth" metrics <> None);
  Alcotest.(check bool) "obs counters present" true
    (J.member "counters" metrics <> None);
  stop_server socket server

let test_serve_overload_shed () =
  let socket, server =
    start_server ~workers:1 ~handlers:2 ~queue_capacity:1 ()
  in
  let jobs = List.init 8 (fun i -> job_line ~id:i ~target:"serial" gs) in
  let replies = Svc.request ~socket jobs in
  Alcotest.(check int) "every job answered" 8 (List.length replies);
  let statuses = List.map (fun l -> str_of (field "status" l)) replies in
  Alcotest.(check bool) "some jobs completed" true
    (List.mem "ok" statuses);
  let rejected =
    List.filter (fun l -> str_of (field "status" l) = "rejected") replies
  in
  Alcotest.(check bool) "overload sheds instead of queueing forever" true
    (rejected <> []);
  List.iter
    (fun l ->
      Alcotest.(check string) "typed rejection reason" "overloaded"
        (str_of (field "reason" l)))
    rejected;
  stop_server socket server

let test_serve_quota_exceeded () =
  let socket, server =
    start_server ~workers:1 ~handlers:2 ~default_quota:2 ()
  in
  let jobs = List.init 6 (fun i -> job_line ~id:i ~target:"serial" gs) in
  let replies = Svc.request ~socket jobs in
  let statuses = List.map (fun l -> str_of (field "status" l)) replies in
  Alcotest.(check bool) "admitted jobs completed" true (List.mem "ok" statuses);
  let rejected =
    List.filter (fun l -> str_of (field "status" l) = "rejected") replies
  in
  Alcotest.(check bool) "quota sheds the flood" true (rejected <> []);
  List.iter
    (fun l ->
      Alcotest.(check string) "typed quota reason" "quota-exceeded"
        (str_of (field "reason" l)))
    rejected;
  (* a fresh connection is a fresh client: its quota is its own *)
  let ok = Svc.request ~socket [ job_line ~target:"serial" pw ] in
  Alcotest.(check string) "other clients unaffected" "ok"
    (str_of (field "status" (List.hd ok)));
  stop_server socket server

let test_serve_survives_vanishing_client () =
  let socket, server = start_server ~workers:2 () in
  (* send jobs then vanish without reading a single reply *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let payload =
    String.concat "\n"
      (List.init 3 (fun i -> job_line ~id:i ~target:"serial" gs))
    ^ "\n"
  in
  ignore (Unix.write_substring fd payload 0 (String.length payload));
  Unix.close fd;
  (* the server keeps serving other clients *)
  let replies = Svc.request ~socket [ job_line ~target:"serial" pw ] in
  Alcotest.(check string) "server survives the vanished client" "ok"
    (str_of (field "status" (List.hd replies)));
  stop_server socket server

(* The socket path is the readiness signal: once it exists, a raw
   connect must succeed. Binding creates the file before [listen], so
   the server publishes the path only once it is listening. *)
let test_serve_socket_ready_on_appear () =
  for _ = 1 to 25 do
    let socket, server = start_server ~workers:1 ~handlers:1 () in
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.connect fd (Unix.ADDR_UNIX socket));
    stop_server socket server
  done

let () =
  Alcotest.run "server"
    [ ( "scheduler",
        [ Alcotest.test_case "jobs complete" `Quick test_sched_completes;
          Alcotest.test_case "failure isolated" `Quick
            test_sched_failure_isolated;
          Alcotest.test_case "queue full backpressure" `Quick
            test_sched_queue_full;
          Alcotest.test_case "deadlines" `Quick test_sched_deadline;
          Alcotest.test_case "shutdown drains" `Quick
            test_sched_shutdown_drains;
          Alcotest.test_case "fair round robin" `Quick
            test_sched_fair_round_robin;
          Alcotest.test_case "client weights" `Quick test_sched_client_weights;
          Alcotest.test_case "in-flight quota" `Quick test_sched_quota;
          Alcotest.test_case "cancellation sheds queued work" `Quick
            test_sched_cancellation ] );
      ("protocol", [ Alcotest.test_case "parse_job" `Quick test_parse_job ]);
      ( "batch",
        [ Alcotest.test_case "concurrent equals serial" `Quick
            test_batch_concurrent_equals_serial;
          Alcotest.test_case "bad job fails alone" `Quick
            test_batch_bad_job_fails_alone;
          Alcotest.test_case "warm cache hits" `Quick
            test_batch_warm_cache_hits;
          Alcotest.test_case "phase-boundary cancellation" `Quick
            test_execute_phase_cancellation ] );
      ( "serve",
        [ Alcotest.test_case "socket round trip" `Quick test_serve_round_trip;
          Alcotest.test_case "stalled client does not block" `Quick
            test_serve_stalled_client_not_blocking;
          Alcotest.test_case "metrics request" `Quick test_serve_metrics;
          Alcotest.test_case "overload shed" `Quick test_serve_overload_shed;
          Alcotest.test_case "quota exceeded" `Quick
            test_serve_quota_exceeded;
          Alcotest.test_case "socket ready when it appears" `Quick
            test_serve_socket_ready_on_appear;
          Alcotest.test_case "survives vanishing client" `Quick
            test_serve_survives_vanishing_client ] ) ]

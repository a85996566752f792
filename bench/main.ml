(* Benchmark harness: regenerates every figure of the paper's evaluation
   (Section 4) and runs Bechamel micro-benchmarks over the substrate's
   execution tiers.

   For each figure the harness prints:
   - MEASURED rows: real executions of this repository's pipelines
     (interpreter / compiled stencil kernels / vendor kernels, simulated
     GPU clock, simulated MPI) at container-friendly problem sizes;
   - MODEL rows: the calibrated ARCHER2/V100/Slingshot machine models at
     the paper's problem sizes, which is where the figure *shapes* (who
     wins, crossovers) are reproduced. EXPERIMENTS.md records the
     paper-vs-ours comparison.

   Usage:  main.exe [--figure N] [--quick] [--no-bechamel]
           main.exe --serve   (BENCH_serve.json only, incl. saturation) *)

module P = Fsc_driver.Pipeline
module B = Fsc_driver.Benchmarks
module Rt = Fsc_rt.Memref_rt
module V = Fsc_rt.Vendor_kernels
module C = Fsc_perf.Cpu_model
module G = Fsc_perf.Gpu_model
module N = Fsc_perf.Net_model
module Cal = Fsc_perf.Calibrate

let quick = ref false
let figures = ref []
let run_bechamel = ref true
let kernels_only = ref false
let dist_only = ref false
let serve_only = ref false

let () =
  Array.iteri
    (fun i arg ->
      match arg with
      | "--quick" -> quick := true
      | "--no-bechamel" -> run_bechamel := false
      | "--kernels-only" -> kernels_only := true
      | "--dist" -> dist_only := true
      | "--serve" -> serve_only := true
      | "--figure" ->
        if i + 1 < Array.length Sys.argv then
          figures := int_of_string Sys.argv.(i + 1) :: !figures
      | _ -> ())
    Sys.argv

let want fig = !figures = [] || List.mem fig !figures

(* ------------------------------------------------------------------ *)
(* Machine-readable pipeline timings: BENCH_pipeline.json              *)
(* ------------------------------------------------------------------ *)

(* Instrument one representative compile+run (gauss-seidel through the
   gpu-optimised flow, which exercises the full Listing-4 pass pipeline)
   and dump per-phase / per-pass / per-kernel timings plus counters as
   JSON, so perf PRs can diff pipeline cost mechanically instead of
   scraping the tables above. *)
let write_pipeline_json () =
  let module Obs = Fsc_obs.Obs in
  let module J = Fsc_obs.Obs.Json in
  Obs.reset ();
  Obs.set_enabled true;
  let n = 12 in
  let iters = 2 in
  let src = B.gauss_seidel ~nx:n ~ny:n ~nz:n ~niter:iters () in
  let a, _ = P.stencil ~target:(P.Gpu P.Gpu_optimised) src in
  P.run a;
  P.shutdown a;
  Obs.set_enabled false;
  let ms s = J.Num (1000. *. s) in
  let arg_json name e =
    match List.assoc_opt name e.Obs.e_args with
    | Some a -> Obs.json_of_arg a
    | None -> J.Null
  in
  let phases =
    List.map
      (fun e ->
        J.Obj [ ("name", J.Str e.Obs.e_name); ("ms", ms e.Obs.e_dur) ])
      (Obs.events_with_cat "pipeline")
  in
  let passes =
    List.map
      (fun e ->
        J.Obj
          [ ("name", J.Str e.Obs.e_name); ("ms", ms e.Obs.e_dur);
            ("ops_before", arg_json "ops_before" e);
            ("ops_after", arg_json "ops_after" e);
            ("verify_ms", arg_json "verify_ms" e) ])
      (Obs.events_with_cat "pass")
  in
  let kernels =
    List.map
      (fun (name, count, total) ->
        J.Obj
          [ ("name", J.Str name); ("count", J.Num (float_of_int count));
            ("total_ms", ms total) ])
      (Obs.span_summary ~cat:"kernel" ())
  in
  let counters =
    List.map
      (fun (name, v) -> (name, J.Num (float_of_int v)))
      (Obs.counter_totals ())
  in
  let json =
    J.Obj
      [ ("benchmark",
         J.Str
           (Printf.sprintf "gauss_seidel %d^3 x%d, gpu-optimised" n iters));
        ("phases", J.List phases); ("passes", J.List passes);
        ("kernels", J.List kernels); ("counters", J.Obj counters) ]
  in
  let path = "BENCH_pipeline.json" in
  let oc = open_out path in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "pipeline timings written to %s (%d passes, %d phases)\n"
    path (List.length passes) (List.length phases)

(* ------------------------------------------------------------------ *)
(* Static-analysis timings: BENCH_analysis.json                        *)
(* ------------------------------------------------------------------ *)

(* Cost of the `sfc check` analyses (dependence classification + bounds
   checking) relative to lowering alone, per benchmark program — the
   overhead a build pays for running the linter on every file. *)
let write_analysis_json () =
  let module J = Fsc_obs.Obs.Json in
  let module Check = Fsc_analysis.Check in
  let time reps f =
    (* median-of-reps wall clock, in ms *)
    let samples =
      List.init reps (fun _ ->
          let t0 = Unix.gettimeofday () in
          ignore (f ());
          1e3 *. (Unix.gettimeofday () -. t0))
    in
    List.nth (List.sort compare samples) (reps / 2)
  in
  let n = 12 in
  let iters = 2 in
  let benches =
    [ ("gauss-seidel", B.gauss_seidel ~nx:n ~ny:n ~nz:n ~niter:iters ());
      ("pw-advection", B.pw_advection ~nx:n ~ny:n ~nz:n ~niter:iters ()) ]
  in
  let reps = if !quick then 5 else 11 in
  let series =
    List.map
      (fun (bname, src) ->
        let lower_ms =
          time reps (fun () -> Fsc_fortran.Flower.compile_source src)
        in
        let check_ms = time reps (fun () -> Check.check_source src) in
        let nests, carried =
          match Check.check_source src with
          | Ok (_, r) ->
            let s = r.Check.r_summary in
            ( s.Check.ns_parallel + s.Check.ns_carried + s.Check.ns_unknown,
              s.Check.ns_carried )
          | Error _ -> (0, 0)
        in
        J.Obj
          [ ("benchmark", J.Str bname); ("lower_ms", J.Num lower_ms);
            ("check_ms", J.Num check_ms);
            ("analysis_overhead_ms", J.Num (check_ms -. lower_ms));
            ("overhead_ratio", J.Num (check_ms /. lower_ms));
            ("nests", J.Num (float_of_int nests));
            ("carried", J.Num (float_of_int carried)) ])
      benches
  in
  let json =
    J.Obj
      [ ("setup",
         J.Str (Printf.sprintf "%d^3 x%d, median of %d reps" n iters reps));
        ("series", J.List series) ]
  in
  let path = "BENCH_analysis.json" in
  let oc = open_out path in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "analysis timings written to %s (%d programs)\n" path
    (List.length series)

(* ------------------------------------------------------------------ *)
(* Compilation-service timings: BENCH_serve.json                       *)
(* ------------------------------------------------------------------ *)

(* Cold-vs-warm compile series through the artifact cache, per
   benchmark and target, plus the wall clock of an 8-job batch on a
   2-worker pool — the numbers behind `sfc batch` / `sfc serve`. *)
let write_serve_json () =
  let module J = Fsc_obs.Obs.Json in
  let module Cc = Fsc_driver.Compile_cache in
  let fresh_cache () =
    let dir = Filename.temp_file "fsc_bench_cache" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    Cc.create_cache ~dir ()
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, 1e3 *. (Unix.gettimeofday () -. t0))
  in
  let n = 12 in
  let iters = 2 in
  let benches =
    [ ("gauss-seidel", B.gauss_seidel ~nx:n ~ny:n ~nz:n ~niter:iters ());
      ("pw-advection", B.pw_advection ~nx:n ~ny:n ~nz:n ~niter:iters ()) ]
  in
  let targets = [ P.Serial; P.Openmp 2; P.Gpu P.Gpu_optimised ] in
  let cache = fresh_cache () in
  let warm_reps = 5 in
  let series =
    List.concat_map
      (fun (bname, src) ->
        List.map
          (fun target ->
            let options = P.default_options ~target () in
            let _, cold_ms = time (fun () -> Cc.compile ~cache options src) in
            let warm_total =
              List.fold_left ( +. ) 0.
                (List.init warm_reps (fun _ ->
                     snd (time (fun () -> Cc.compile ~cache options src))))
            in
            let warm_ms = warm_total /. float_of_int warm_reps in
            J.Obj
              [ ("benchmark", J.Str bname);
                ("target", J.Str (P.target_name target));
                ("cold_ms", J.Num cold_ms); ("warm_ms", J.Num warm_ms);
                ("speedup", J.Num (cold_ms /. warm_ms)) ])
          targets)
      benches
  in
  (* batch wall clock: every target on both programs, 2 workers *)
  let job src target_fields =
    J.to_string (J.Obj (("source", J.Str src) :: target_fields))
  in
  let lines =
    List.concat_map
      (fun (_, src) ->
        [ job src [ ("target", J.Str "serial") ];
          job src [ ("target", J.Str "openmp"); ("threads", J.Num 2.) ];
          job src [ ("target", J.Str "gpu-initial") ];
          job src [ ("target", J.Str "gpu-optimised") ] ])
      benches
  in
  let bcache = fresh_cache () in
  let batch ~label:_ () =
    snd
      (time (fun () ->
           Fsc_server.Service.run_batch ~cache:bcache ~workers:2 lines))
  in
  let batch_cold_ms = batch ~label:"cold" () in
  let batch_warm_ms = batch ~label:"warm" () in
  (* ---- multi-client open-loop saturation sweep ----

     A real `serve` instance under paced one-connection-per-request load
     from concurrent client identities, at several offered-load multiples
     of the measured warm capacity. Latency is measured from the
     *scheduled* send time, so a lagging generator counts as queueing
     rather than hiding it (no coordinated omission). A quarter of the
     jobs are fresh sources (cold compiles); every ok reply's checksums
     must be bitwise identical to a serial in-process reference. *)
  let module Svc = Fsc_server.Service in
  let failures = ref [] in
  let sat_workers = 2 and sat_handlers = 12 and sat_queue = 3 in
  let n_clients = 8 in
  let jobs_per_point = if !quick then 20 else 40 in
  let variants = Hashtbl.create 64 in
  List.iteri (fun i (_, src) -> Hashtbl.replace variants i src) benches;
  let next_vid = ref (List.length benches) in
  (* a fresh variant pads a base program with [vid] blank lines: a new
     cache key, the same program, the same checksums *)
  let fresh_variant () =
    let vid = !next_vid in
    incr next_vid;
    let _, base = List.nth benches (vid mod List.length benches) in
    Hashtbl.replace variants vid (base ^ String.make vid '\n');
    vid
  in
  let multipliers = [ 0.5; 1.0; 2.0; 4.0 ] in
  let schedules =
    List.map
      (fun m ->
        ( m,
          List.init jobs_per_point (fun j ->
              let vid = if j mod 4 = 3 then fresh_variant () else j mod 2 in
              (j, vid)) ))
      multipliers
  in
  let job_line ~client vid =
    J.to_string
      (J.Obj
         [ ("source", J.Str (Hashtbl.find variants vid));
           ("target", J.Str "serial"); ("action", J.Str "run");
           ("id", J.Num (float_of_int vid)); ("client", J.Str client) ])
  in
  let reply_fields r =
    match J.of_string r with
    | j ->
      let str name =
        match J.member name j with Some (J.Str s) -> s | _ -> ""
      in
      let vid =
        match J.member "id" j with
        | Some (J.Num v) -> int_of_float v
        | _ -> -1
      in
      let cks =
        match J.member "checksums" j with
        | Some v -> J.to_string v
        | None -> ""
      in
      (vid, str "status", str "cache", cks)
    | exception J.Parse_error _ -> (-1, "unparseable", "", "")
  in
  (* serial in-process reference: the bitwise ground truth per job *)
  let reference = Hashtbl.create 64 in
  let ref_lines =
    List.init !next_vid (fun vid -> job_line ~client:"ref" vid)
  in
  List.iter
    (fun r ->
      let vid, status, _, cks = reply_fields r in
      if status <> "ok" then
        failures :=
          Printf.sprintf "saturation: serial reference job %d is %s" vid
            status
          :: !failures;
      Hashtbl.replace reference vid cks)
    (Svc.run_batch ~workers:1 ~cache:(fresh_cache ()) ref_lines);
  let tmp_dir () =
    let d = Filename.temp_file "fsc_bench_serve" "" in
    Sys.remove d;
    Unix.mkdir d 0o700;
    d
  in
  let socket = Filename.concat (tmp_dir ()) "sfc.sock" in
  let server_cache = fresh_cache () in
  let server =
    Domain.spawn (fun () ->
        Svc.serve ~cache:server_cache ~workers:sat_workers
          ~queue_capacity:sat_queue ~handlers:sat_handlers ~socket ())
  in
  let rec await_socket tries =
    if not (Sys.file_exists socket) then
      if tries <= 0 then
        failures := "saturation: serve socket never appeared" :: !failures
      else begin
        Unix.sleepf 0.02;
        await_socket (tries - 1)
      end
  in
  await_socket 250;
  (* warm the base variants, then measure steady-state service time *)
  List.iteri
    (fun i _ -> ignore (Svc.request ~socket [ job_line ~client:"warmup" i ]))
    benches;
  let warm_s =
    let reps = 6 in
    let t0 = Unix.gettimeofday () in
    for i = 1 to reps do
      ignore
        (Svc.request ~socket
           [ job_line ~client:"warmup" (i mod List.length benches) ])
    done;
    max 1e-4 ((Unix.gettimeofday () -. t0) /. float_of_int reps)
  in
  let cold_s =
    let reps = 2 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore
        (Svc.request ~socket [ job_line ~client:"warmup" (fresh_variant ()) ])
    done;
    max 1e-4 ((Unix.gettimeofday () -. t0) /. float_of_int reps)
  in
  (* the offered mix is 3 warm jobs to 1 cold, so capacity must price
     the cold compiles in or every point lands past saturation *)
  let svc_s = (0.75 *. warm_s) +. (0.25 *. cold_s) in
  let capacity = float_of_int sat_workers /. svc_s in
  let percentile lats p =
    let a = Array.of_list lats in
    let m = Array.length a in
    if m = 0 then 0.
    else begin
      Array.sort compare a;
      a.(max 0 (min (m - 1) (int_of_float (ceil (p *. float_of_int m)) - 1)))
    end
  in
  let points =
    List.map
      (fun (mult, sched) ->
        let rate = mult *. capacity in
        let t0 = Unix.gettimeofday () +. 0.05 in
        let buckets = Array.make n_clients [] in
        List.iter
          (fun (j, vid) ->
            buckets.(j mod n_clients) <-
              (float_of_int j /. rate, j, vid) :: buckets.(j mod n_clients))
          sched;
        let doms =
          Array.map
            (fun bucket ->
              let bucket = List.rev bucket in
              Domain.spawn (fun () ->
                  List.map
                    (fun (t, j, vid) ->
                      let client = Printf.sprintf "load-%d" (j mod n_clients) in
                      let target = t0 +. t in
                      let now = Unix.gettimeofday () in
                      if target > now then Unix.sleepf (target -. now);
                      let reply =
                        match Svc.request ~socket [ job_line ~client vid ] with
                        | [ r ] -> r
                        | _ -> ""
                      in
                      (vid, target, Unix.gettimeofday (), reply))
                    bucket))
            buckets
        in
        let results = Array.to_list doms |> List.concat_map Domain.join in
        let t_end =
          List.fold_left (fun acc (_, _, fin, _) -> max acc fin) t0 results
        in
        let wall = max 1e-6 (t_end -. t0) in
        let ok = ref 0 and rejected = ref 0 and errors = ref 0 in
        let cold = ref 0 and warm = ref 0 in
        let lats = ref [] in
        List.iter
          (fun (vid, sched_t, fin, reply) ->
            let _, status, cachef, cks = reply_fields reply in
            match status with
            | "ok" ->
              incr ok;
              lats := (1e3 *. (fin -. sched_t)) :: !lats;
              (match cachef with
              | "hit" -> incr warm
              | "miss" -> incr cold
              | _ -> ());
              (match Hashtbl.find_opt reference vid with
              | Some ref_cks when ref_cks = cks -> ()
              | Some _ ->
                failures :=
                  Printf.sprintf
                    "saturation x%g: job %d checksums differ from serial"
                    mult vid
                  :: !failures
              | None ->
                failures :=
                  Printf.sprintf "saturation x%g: job %d has no reference"
                    mult vid
                  :: !failures)
            | "rejected" -> incr rejected
            | other ->
              incr errors;
              failures :=
                Printf.sprintf "saturation x%g: job %d unexpected status %S"
                  mult vid other
                :: !failures)
          results;
        let total = List.length results in
        let p50 = percentile !lats 0.50 and p99 = percentile !lats 0.99 in
        if p99 < p50 then
          failures :=
            Printf.sprintf "saturation x%g: p99 below p50" mult :: !failures;
        Printf.printf
          "  serve saturation x%-4g %5.1f req/s offered: %5.1f/s through, \
           p50 %6.1f ms, p99 %6.1f ms, shed %4.1f%%, warm %d/%d\n"
          mult rate
          (float_of_int !ok /. wall)
          p50 p99
          (100. *. float_of_int !rejected /. float_of_int (max 1 total))
          !warm (!warm + !cold);
        ( !cold,
          !warm,
          J.Obj
            [ ("offered_multiplier", J.Num mult);
              ("offered_per_s", J.Num rate);
              ("jobs", J.Num (float_of_int total));
              ("ok", J.Num (float_of_int !ok));
              ("rejected", J.Num (float_of_int !rejected));
              ("errors", J.Num (float_of_int !errors));
              ("throughput_per_s", J.Num (float_of_int !ok /. wall));
              ("p50_ms", J.Num p50); ("p99_ms", J.Num p99);
              ("shed_rate",
               J.Num (float_of_int !rejected /. float_of_int (max 1 total)));
              ("cold_compiles", J.Num (float_of_int !cold));
              ("warm_hits", J.Num (float_of_int !warm));
              ("warm_hit_ratio",
               J.Num
                 (if !warm + !cold = 0 then 0.
                  else float_of_int !warm /. float_of_int (!warm + !cold)))
            ] ))
      schedules
  in
  (try ignore (Svc.request ~socket [ {|{"action": "shutdown"}|} ])
   with Unix.Unix_error _ | Sys_error _ -> ());
  Domain.join server;
  let total_cold = List.fold_left (fun a (c, _, _) -> a + c) 0 points in
  let total_warm = List.fold_left (fun a (_, w, _) -> a + w) 0 points in
  let point_objs = List.map (fun (_, _, o) -> o) points in
  if List.length point_objs < 4 then
    failures := "saturation: fewer than 4 offered-load points" :: !failures;
  if total_cold = 0 then
    failures := "saturation: no cold compiles observed" :: !failures;
  if total_warm = 0 then
    failures := "saturation: no warm cache hits observed" :: !failures;
  let json =
    J.Obj
      [ ("setup",
         J.Str
           (Printf.sprintf "%d^3 x%d, %d warm reps, 2 workers" n iters
              warm_reps));
        ("series", J.List series);
        ("batch",
         J.Obj
           [ ("jobs", J.Num (float_of_int (List.length lines)));
             ("workers", J.Num 2.); ("cold_ms", J.Num batch_cold_ms);
             ("warm_ms", J.Num batch_warm_ms) ]);
        ("saturation",
         J.Obj
           [ ("setup",
              J.Obj
                [ ("workers", J.Num (float_of_int sat_workers));
                  ("handlers", J.Num (float_of_int sat_handlers));
                  ("queue_capacity", J.Num (float_of_int sat_queue));
                  ("clients", J.Num (float_of_int n_clients));
                  ("jobs_per_point", J.Num (float_of_int jobs_per_point));
                  ("service_ms", J.Num (1e3 *. svc_s));
                  ("capacity_per_s", J.Num capacity) ]);
             ("points", J.List point_objs) ]) ]
  in
  let path = "BENCH_serve.json" in
  let oc = open_out path in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  (* self-validate: the file must re-parse and carry the saturation
     curve with its percentile and shed fields *)
  let reread =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (match J.of_string reread with
  | parsed -> (
    if
      J.member "series" parsed = None
      || J.member "batch" parsed = None
      || J.member "saturation" parsed = None
    then
      failures := (path ^ ": missing series/batch/saturation") :: !failures;
    match
      Option.bind (J.member "saturation" parsed) (J.member "points")
    with
    | Some (J.List (first :: _ as pts)) ->
      if List.length pts < 4 then
        failures := (path ^ ": saturation has < 4 points") :: !failures;
      List.iter
        (fun field ->
          if J.member field first = None then
            failures :=
              Printf.sprintf "%s: saturation point lacks %S" path field
              :: !failures)
        [ "offered_per_s"; "throughput_per_s"; "p50_ms"; "p99_ms";
          "shed_rate"; "warm_hit_ratio" ]
    | _ ->
      failures := (path ^ ": saturation points missing/empty") :: !failures)
  | exception J.Parse_error e ->
    failures := (path ^ ": unparseable: " ^ e) :: !failures);
  Printf.printf
    "serve timings written to %s (%d series points; batch %d jobs cold \
     %.0f ms -> warm %.0f ms; %d saturation points)\n"
    path (List.length series) (List.length lines) batch_cold_ms batch_warm_ms
    (List.length point_objs);
  if !failures <> [] then begin
    List.iter (fun f -> Printf.eprintf "FAIL %s\n" f) !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Execution-engine comparison: BENCH_kernels.json                     *)
(* ------------------------------------------------------------------ *)

(* The four kernel execution tiers (interp / closure / vector / native)
   on the row-friendly benchmarks. Closure, vector and native run on the
   same compiled artifact (same grids) so the ratio isolates the engine;
   the interpreter runs on a much smaller grid, like figure2_measured,
   and its ratio is a tier gap rather than a same-size speedup. The
   native tier builds Sync into a fresh private cache: the first run
   pays the cold ocamlopt compile — recorded separately as
   [cold_build_ms] — and the measured windows then see only the plugin's
   steady-state throughput. Before any number is written the
   closure/vector/native grids are required to be bitwise identical, and
   neither vector (vs closure) nor native (vs vector) may lose to the
   tier below — any failure exits nonzero, which is what ci.sh asserts.
   Without an ocamlopt toolchain the native column is skipped with a
   notice and the gate does not apply. *)
let write_kernels_json () =
  let module J = Fsc_obs.Obs.Json in
  let min_seconds = if !quick then 0.1 else 0.2 in
  let n_gs = if !quick then 32 else 48 in
  let n_lp = if !quick then 96 else 128 in
  let n_small = if !quick then 8 else 12 in
  (* enough timesteps that per-run fixed costs (allocation, host
     interpretation) amortise against kernel execution *)
  let iters = if !quick then 6 else 10 in
  let benches =
    [ (* name, fast source + cells, interp source + cells, checked grid *)
      ("gauss-seidel",
       B.gauss_seidel ~nx:n_gs ~ny:n_gs ~nz:n_gs ~niter:iters (),
       float_of_int (n_gs * n_gs * n_gs * iters),
       Printf.sprintf "%d^3 x%d" n_gs iters,
       B.gauss_seidel ~nx:n_small ~ny:n_small ~nz:n_small ~niter:iters (),
       float_of_int (n_small * n_small * n_small * iters),
       "u");
      ("laplace",
       B.laplace ~n:n_lp ~niter:iters (),
       float_of_int (n_lp * n_lp * iters),
       Printf.sprintf "%d^2 x%d" n_lp iters,
       B.laplace ~n:n_small ~niter:iters (),
       float_of_int (n_small * n_small * iters),
       "phi") ]
  in
  let failures = ref [] in
  let series = ref [] and speedups = ref [] in
  (* best of three windows: the mean of one window is hostage to
     scheduler noise in a shared container; the fastest window is the
     engine's actual throughput *)
  let measure ~label a cells_per_iter =
    let windows =
      List.init 3 (fun _ ->
          Cal.measure ~label ~cells_per_iter ~min_seconds (fun () ->
              P.run a))
    in
    List.fold_left
      (fun best m -> if Cal.mcells m > Cal.mcells best then m else best)
      (List.hd windows) (List.tl windows)
  in
  List.iter
    (fun (bname, src, cells, size, src_small, cells_small, grid) ->
      (* one compile, three links: the engine is link-time state *)
      let options = P.default_options ~target:P.Serial () in
      let ca = P.compile options src in
      let linked engine = P.link ~engine ca in
      let a_interp, _ =
        P.stencil ~target:P.Serial ~engine:P.Engine_interp src_small
      in
      let m_interp =
        measure
          ~label:(bname ^ "  interp (FIR interpreter)")
          a_interp cells_small
      in
      let a_closure = linked P.Engine_closure in
      let m_closure =
        measure
          ~label:(bname ^ "  closure (per-cell JIT)")
          a_closure cells
      in
      let a_vector = linked P.Engine_vector in
      let m_vector =
        measure
          ~label:(bname ^ "  vector (row bytecode)")
          a_vector cells
      in
      (* native: Sync builds into a fresh private cache so every plugin
         compile is cold and attributable to this benchmark *)
      let module N = Fsc_codegen.Native in
      let native_ctx =
        N.create
          ~cache:
            (Fsc_cache.Cache.create
               ~dir:
                 (Filename.concat
                    (Filename.get_temp_dir_name ())
                    (Printf.sprintf "sfc-bench-native-%d-%s" (Unix.getpid ())
                       bname))
               ~version:N.format_version ())
          ~mode:N.Sync ()
      in
      let native =
        match N.toolchain_error native_ctx with
        | Some why ->
          Printf.printf "  %s: native tier skipped (%s)\n" bname why;
          None
        | None ->
          let a_native = P.link ~engine:P.Engine_native ~native:native_ctx ca in
          (* the first run binds and compiles inline (Sync): after it,
             the per-kernel reports carry the cold build cost *)
          P.run a_native;
          let build_ms =
            List.fold_left
              (fun acc (_, impl) ->
                match impl with
                | P.Native_jit (_, nk) ->
                  Printf.printf "    %s: %s\n" (N.name nk) (N.describe nk);
                  acc +. Option.value (N.report nk).N.rp_build_ms ~default:0.
                | _ -> acc)
              0. a_native.P.a_kernels
          in
          let m_native =
            measure
              ~label:(bname ^ "  native (compiled plugin)")
              a_native cells
          in
          Some (a_native, m_native, build_ms)
      in
      print_endline
        (Cal.report
           ([ m_interp; m_closure; m_vector ]
           @ match native with Some (_, m, _) -> [ m ] | None -> []));
      (* bitwise agreement on the full grid across the compiled tiers *)
      let check_diff other_name other_a =
        let diff =
          Rt.max_abs_diff
            (P.buffer_exn a_closure grid)
            (P.buffer_exn other_a grid)
        in
        if diff <> 0.0 then
          failures :=
            Printf.sprintf "%s: closure/%s grids differ by %g" bname
              other_name diff
            :: !failures
      in
      check_diff "vector" a_vector;
      Option.iter (fun (a, _, _) -> check_diff "native" a) native;
      (* per-nest vectorisation coverage for the record *)
      let vec_nests, nests =
        List.fold_left
          (fun (v, n) (_, impl) ->
            match impl with
            | P.Vectorised (_, plan) ->
              let module Kb = Fsc_rt.Kernel_bytecode in
              (v + Kb.vectorised_nests plan, n + Kb.nest_count plan)
            | _ -> (v, n))
          (0, 0) a_vector.P.a_kernels
      in
      P.shutdown a_closure;
      P.shutdown a_vector;
      P.shutdown a_interp;
      Option.iter (fun (a, _, _) -> P.shutdown a) native;
      let point ?(extra = []) engine m cells_note =
        J.Obj
          ([ ("benchmark", J.Str bname); ("engine", J.Str engine);
             ("size", J.Str cells_note);
             ("mcells_per_s", J.Num (Cal.mcells m)) ]
          @ extra)
      in
      series :=
        !series
        @ [ point "interp" m_interp
              (Printf.sprintf "%.0f cells" cells_small);
            point "closure" m_closure size; point "vector" m_vector size ]
        @ (match native with
          | Some (_, m, build_ms) ->
            [ point ~extra:[ ("cold_build_ms", J.Num build_ms) ] "native" m
                size ]
          | None -> []);
      let v_over_c = Cal.mcells m_vector /. Cal.mcells m_closure in
      if v_over_c < 1.0 then
        failures :=
          Printf.sprintf "%s: vector engine slower than closure (%.2fx)"
            bname v_over_c
          :: !failures;
      let native_fields =
        match native with
        | None -> []
        | Some (_, m, build_ms) ->
          let n_over_v = Cal.mcells m /. Cal.mcells m_vector in
          if n_over_v < 1.0 then
            failures :=
              Printf.sprintf "%s: native engine slower than vector (%.2fx)"
                bname n_over_v
              :: !failures;
          Printf.printf "  %s: native/vector %.2fx (cold build %.1f ms)\n"
            bname n_over_v build_ms;
          [ ("native_over_vector", J.Num n_over_v);
            ("native_cold_build_ms", J.Num build_ms) ]
      in
      Printf.printf
        "  %s: vector/closure %.2fx, closure/interp tier gap %.0fx \
         (%d/%d nests vectorised)\n"
        bname v_over_c
        (Cal.mcells m_closure /. Cal.mcells m_interp)
        vec_nests nests;
      speedups :=
        !speedups
        @ [ J.Obj
              ([ ("benchmark", J.Str bname);
                 ("vector_over_closure", J.Num v_over_c);
                 ("closure_over_interp",
                  J.Num (Cal.mcells m_closure /. Cal.mcells m_interp));
                 ("vectorised_nests", J.Num (float_of_int vec_nests));
                 ("nests", J.Num (float_of_int nests)) ]
              @ native_fields) ])
    benches;
  (* --- scheduling: the native tier's emit-time transforms, serial and
     pooled. Every point must stay bitwise identical to the closure
     engine, and the structural gates must hold: aligned fusion fires
     on smooth, the shifted sweep/copy schedule on Gauss-Seidel and
     Laplace. Both are deterministic and immune to container timing
     noise. The pooled point is an OpenMP compile of the same program,
     so emitted parallel levels dispatch through the in-plugin pool. *)
  let scheduling = ref [] in
  let module N = Fsc_codegen.Native in
  let sched_ctx ~bname ~cname =
    N.create
      ~cache:
        (Fsc_cache.Cache.create
           ~dir:
             (Filename.concat
                (Filename.get_temp_dir_name ())
                (Printf.sprintf "sfc-bench-sched-%d-%s-%s" (Unix.getpid ())
                   bname cname))
           ~version:N.format_version ())
      ~mode:N.Sync ()
  in
  let sched_benches =
    [ ("gauss-seidel",
       B.gauss_seidel ~nx:n_gs ~ny:n_gs ~nz:n_gs ~niter:iters (),
       float_of_int (n_gs * n_gs * n_gs * iters),
       Printf.sprintf "%d^3 x%d" n_gs iters, "u", "shift d=");
      ("laplace",
       B.laplace ~n:n_lp ~niter:iters (),
       float_of_int (n_lp * n_lp * iters),
       Printf.sprintf "%d^2 x%d" n_lp iters, "phi", "shift d=");
      ("smooth",
       B.smooth ~nx:n_gs ~ny:n_gs ~nz:n_gs ~niter:iters (),
       float_of_int (n_gs * n_gs * n_gs * iters),
       Printf.sprintf "%d^3 x%d" n_gs iters, "d", "aligned") ]
  in
  (match N.toolchain_error (sched_ctx ~bname:"probe" ~cname:"probe") with
  | Some why -> Printf.printf "  scheduling skipped (%s)\n" why
  | None ->
    List.iter
      (fun (bname, src, cells, size, grid, fuse_marker) ->
        let a_closure =
          P.link ~engine:P.Engine_closure
            (P.compile (P.default_options ~target:P.Serial ()) src)
        in
        P.run a_closure;
        (* one native link per point, each into its own fresh Sync
           cache; the first run binds and compiles inline *)
        let point cname target =
          let a =
            P.link ~engine:P.Engine_native
              ~native:(sched_ctx ~bname ~cname)
              (P.compile (P.default_options ~target ()) src)
          in
          P.run a;
          let fused, windows, blits, detail, par_mode =
            List.fold_left
              (fun (f, w, b, d, pm) (_, impl) ->
                match impl with
                | P.Native_jit (_, nk) ->
                  let r = N.report nk in
                  ( f + r.N.rp_fused_nests,
                    w + r.N.rp_reuse_windows,
                    b + r.N.rp_copy_blits,
                    d ^ (if d = "" then "" else " | ") ^ r.N.rp_detail,
                    match r.N.rp_par_mode with Some m -> Some m | None -> pm )
                | _ -> (f, w, b, d, pm))
              (0, 0, 0, "", None) a.P.a_kernels
          in
          Printf.printf "    %s/%s: %s\n" bname cname detail;
          let m =
            measure ~label:(Printf.sprintf "%s  %s" bname cname) a cells
          in
          let diff =
            Rt.max_abs_diff
              (P.buffer_exn a_closure grid)
              (P.buffer_exn a grid)
          in
          if diff <> 0.0 then
            failures :=
              Printf.sprintf "%s/%s: closure/native grids differ by %g"
                bname cname diff
              :: !failures;
          P.shutdown a;
          (fused, detail,
           J.Obj
             ([ ("benchmark", J.Str bname); ("config", J.Str cname);
                ("size", J.Str size); ("mcells_per_s", J.Num (Cal.mcells m));
                ("fused_nests", J.Num (float_of_int fused));
                ("reuse_windows", J.Num (float_of_int windows));
                ("copy_blits", J.Num (float_of_int blits)) ]
             @
             match target with
             | P.Openmp _ ->
               [ ("par_mode",
                  J.Str (Option.value par_mode ~default:"unknown")) ]
             | _ -> []))
        in
        let fused, detail, serial = point "native_v2" P.Serial in
        let _, _, pooled = point "native_v2_pool2" (P.Openmp 2) in
        P.shutdown a_closure;
        (* structural gate: the fusion kind the benchmark exists to
           prove must actually appear in the report *)
        if fused < 2 then
          failures :=
            Printf.sprintf "%s: native schedule fused no nests" bname
            :: !failures;
        let marker_present =
          let ml = String.length fuse_marker and dl = String.length detail in
          let rec scan i =
            i + ml <= dl
            && (String.sub detail i ml = fuse_marker || scan (i + 1))
          in
          scan 0
        in
        if not marker_present then
          failures :=
            Printf.sprintf "%s: native schedule missing '%s' fusion" bname
              fuse_marker
            :: !failures;
        scheduling := !scheduling @ [ serial; pooled ])
      sched_benches);
  let json =
    J.Obj
      [ ("setup",
         J.Str
           (Printf.sprintf
              "serial, engines on identical compiled artifacts; interp \
               tier on %d-sized grids; min %.1fs per measurement"
              n_small min_seconds));
        ("series", J.List !series); ("speedups", J.List !speedups);
        ("scheduling", J.List !scheduling) ]
  in
  let path = "BENCH_kernels.json" in
  let oc = open_out path in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  (* self-validate: the file must re-parse and carry both sections *)
  let reread =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (match J.of_string reread with
  | parsed ->
    if
      J.member "series" parsed = None
      || J.member "speedups" parsed = None
      || J.member "scheduling" parsed = None
    then
      failures := (path ^ ": missing series/speedups/scheduling") :: !failures
  | exception J.Parse_error e ->
    failures := (path ^ ": unparseable: " ^ e) :: !failures);
  Printf.printf "kernel engine timings written to %s (%d series points)\n"
    path (List.length !series);
  if !failures <> [] then begin
    List.iter (fun f -> Printf.eprintf "FAIL %s\n" f) !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Distributed backend scaling: BENCH_dmp.json                         *)
(* ------------------------------------------------------------------ *)

(* The Figure-6 counterpart for the real distributed backend: strong and
   weak scaling of the full pipeline at `--target dist` (concurrent
   ranks, vector engine per rank), overlap-vs-blocking supersteps on
   identical work, measured halo traffic beside the ARCHER2 model's
   projection — with the model curve extended past the measurable rank
   counts to 128 simulated ranks — and per-rank vector-engine
   utilisation. Self-validating: the file is re-read and failures
   (overlap losing to blocking, measured throughput falling outside the
   stated factor of the model, coalesced traffic other than one message
   per neighbour per superstep, no footprint-avoided stales, a dist
   answer differing from serial) exit nonzero so CI can gate on it. *)
let write_dmp_json () =
  let module J = Fsc_obs.Obs.Json in
  let module Dk = Fsc_dmp.Dist_kernel in
  let failures = ref [] in
  let n = if !quick then 12 else 16 in
  let iters = if !quick then 4 else 8 in
  let reps = if !quick then 3 else 5 in
  (* Best-of-[reps] wall clock of [P.run] on one linked artifact, with
     one untimed warm-up run first (pool spin-up, scatter-group and
     runner compilation) so warm-up traffic and time never reach the
     report. Group stats reset at every [P.run] (buffers are reallocated
     per run), so snapshotting them right after a rep yields exactly
     that rep's halo traffic; we keep the snapshot belonging to the rep
     whose time we report. *)
  let best_run_s a =
    P.run a;
    let best = ref infinity in
    let best_stats = ref None in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      P.run a;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then begin
        best := dt;
        best_stats := Option.map Dk.stats a.P.a_dist
      end
    done;
    (!best, !best_stats)
  in
  let mcells_of ~cells dt = float_of_int (cells * iters) /. dt /. 1e6 in
  let dist_point ~global:(gx, gy, gz) ranks =
    let src = B.gauss_seidel ~nx:gx ~ny:gy ~nz:gz ~niter:iters () in
    let a, _ = P.stencil ~target:(P.Dist ranks) ~engine:P.Engine_vector src in
    let dt, stats = best_run_s a in
    P.shutdown a;
    (mcells_of ~cells:(gx * gy * gz) dt, stats)
  in
  (* strong scaling: fixed global grid, growing rank counts *)
  let rank_list = [ 1; 2; 4; 8 ] in
  let measured_8 = ref 0.0 in
  let strong =
    List.map
      (fun ranks ->
        let mc, stats = dist_point ~global:(n, n, n) ranks in
        if ranks = 8 then measured_8 := mc;
        let msgs, bytes, vec, total =
          match stats with
          | Some s ->
            ( List.fold_left (fun a g -> a + g.Dk.gs_msgs) 0 s.Dk.ds_groups,
              List.fold_left (fun a g -> a + g.Dk.gs_bytes) 0 s.Dk.ds_groups,
              s.Dk.ds_vec_nests, s.Dk.ds_total_nests )
          | None -> (0, 0, 0, 0)
        in
        if ranks > 1 && msgs = 0 then
          failures :=
            Printf.sprintf "strong ranks=%d: no halo messages" ranks
            :: !failures;
        if total > 0 && vec = 0 then
          failures :=
            Printf.sprintf "strong ranks=%d: vector engine unused" ranks
            :: !failures;
        let model =
          N.mcells ~variant:N.Auto_dmp ~global:(n, n, n) ~ranks ()
        in
        J.Obj
          [ ("ranks", J.Num (float_of_int ranks)); ("mcells", J.Num mc);
            ("halo_msgs", J.Num (float_of_int msgs));
            ("msgs_per_superstep",
             J.Num (float_of_int msgs /. float_of_int iters));
            ("halo_kb", J.Num (float_of_int bytes /. 1024.));
            ("model_mcells", J.Num model);
            ("vec_nests", J.Num (float_of_int vec));
            ("total_nests", J.Num (float_of_int total)) ])
      rank_list
  in
  (* the Figure-6 tail: the ARCHER2 model carries the curve past what
     one machine can execute, out to 128 simulated ranks (a rank count
     whose process grid cannot fit the global face — 128 on the quick
     12x12 — is skipped, not faked) *)
  let projected =
    List.filter_map
      (fun ranks ->
        match
          ( N.mcells ~variant:N.Auto_dmp ~global:(n, n, n) ~ranks (),
            N.mcells ~variant:N.Hand_cray ~global:(n, n, n) ~ranks () )
        with
        | auto, hand ->
          Some
            (J.Obj
               [ ("ranks", J.Num (float_of_int ranks));
                 ("model_mcells", J.Num auto);
                 ("model_hand_mcells", J.Num hand) ])
        | exception Fsc_dmp.Decomp.Invalid_decomp _ -> None)
      [ 8; 16; 32; 64; 128 ]
  in
  (* gate: the measured 8-rank point must land within a stated factor of
     the model's projection — the collapse this file exists to catch *)
  let model_8 = N.mcells ~variant:N.Auto_dmp ~global:(n, n, n) ~ranks:8 () in
  let model_floor = 0.5 in
  if !measured_8 < model_floor *. model_8 then
    failures :=
      Printf.sprintf
        "strong ranks=8: measured %.1f MCells/s below %.1fx model (%.1f)"
        !measured_8 model_floor model_8
      :: !failures;
  (* weak scaling: constant cells per rank (global z grows with ranks) *)
  let weak =
    List.map
      (fun ranks ->
        let global = (n, n, n * ranks) in
        let mc, _ = dist_point ~global ranks in
        J.Obj
          [ ("ranks", J.Num (float_of_int ranks));
            ("global_cells", J.Num (float_of_int (n * n * n * ranks)));
            ("mcells", J.Num mc) ])
      rank_list
  in
  (* overlap vs blocking on identical work, driven through the executor
     directly with a real pool attached so the comparison measures the
     superstep structures (without one, overlap collapses to the
     blocking schedule): overlap runs one phase fewer per superstep,
     so best-of-N must not lose. This is the measurement behind
     Dist_kernel's automatic choice of overlap whenever a pool exists. *)
  let ranks_ovb = 4 in
  let ov, bl =
    let module DX = Fsc_dmp.Dist_exec in
    let iters_ovb = iters * 5 in
    let d = Fsc_dmp.Decomp.create ~global:(n, n, n) ~ranks:ranks_ovb in
    let init name (i, j, k) =
      if name = "u" then V.gs_init i j k else 0.0
    in
    let pool = Fsc_rt.Domain_pool.create 2 in
    let bench mode =
      let t = DX.create ~pool d ~fields:[ "u"; "unew" ] ~init in
      let local_grids t rank =
        let st = t.DX.ranks.(rank) in
        let lu = DX.field st "u" and ln = DX.field st "unew" in
        let lx, ly, lz = Fsc_dmp.Decomp.local_extents d rank in
        ( { V.g_buf = lu; V.g_nx = lx; V.g_ny = ly; V.g_nz = lz },
          { V.g_buf = ln; V.g_nx = lx; V.g_ny = ly; V.g_nz = lz } )
      in
      let best = ref infinity in
      for _ = 1 to reps do
        let t0 = Unix.gettimeofday () in
        DX.iterate t ~mode ~iters:iters_ovb ~swap_fields:[ "u" ]
          ~sweep:(fun t ~rank w ->
            let gu, gn = local_grids t rank in
            V.gs3d_sweep_in ~u:gu ~unew:gn ~jlo:w.DX.w_jlo ~jhi:w.DX.w_jhi
              ~klo:w.DX.w_klo ~khi:w.DX.w_khi ())
          ~finish:(fun t ~rank ->
            let gu, gn = local_grids t rank in
            V.gs3d_copyback ~u:gu ~unew:gn ())
          ();
        let dt = Unix.gettimeofday () -. t0 in
        if dt < !best then best := dt
      done;
      float_of_int (n * n * n * iters_ovb) /. !best /. 1e6
    in
    (* interleaved best-of rounds: each mode's best converges to its
       floor, and overlap's floor is structurally lower (one phase
       fewer), so extra rounds settle scheduling noise toward the truth
       instead of gambling on it *)
    let bl = ref (bench DX.Blocking) in
    let ov = ref (bench DX.Overlap) in
    let rounds = ref 1 in
    while !ov < !bl && !rounds < 10 do
      incr rounds;
      bl := Float.max !bl (bench DX.Blocking);
      ov := Float.max !ov (bench DX.Overlap)
    done;
    Fsc_rt.Domain_pool.shutdown pool;
    (!ov, !bl)
  in
  if ov < bl then
    failures :=
      Printf.sprintf
        "overlap (%.2f MCells/s) slower than blocking (%.2f MCells/s)" ov bl
      :: !failures;
  (* coalescing traffic shape: supersteps over a three-field swap set
     move exactly one message per neighbour per superstep, however many
     fields the swap set holds; the payload carries every field's halo
     plane behind a small offset header *)
  let coalescing =
    let module DX = Fsc_dmp.Dist_exec in
    let module D = Fsc_dmp.Decomp in
    let ranks_co = 4 and iters_co = 4 in
    let swap = [ "u"; "v"; "w" ] in
    let d = D.create ~global:(n, n, n) ~ranks:ranks_co in
    let t =
      DX.create d ~fields:swap ~init:(fun _ (i, j, k) ->
          float_of_int ((i * 7 + j * 3 + k) mod 11))
    in
    DX.iterate t ~iters:iters_co ~swap_fields:swap
      ~sweep:(fun _ ~rank:_ _ -> ())
      ();
    let msgs, bytes = DX.stats t in
    let neighbours =
      List.fold_left ( + ) 0
        (List.init ranks_co (fun r ->
             List.length (List.filter_map (D.neighbor d r) D.directions)))
    in
    if msgs <> neighbours * iters_co then
      failures :=
        Printf.sprintf
          "coalescing: %d msgs, want %d neighbours x %d supersteps" msgs
          neighbours iters_co
        :: !failures;
    J.Obj
      [ ("ranks", J.Num (float_of_int ranks_co));
        ("swap_fields", J.Num (float_of_int (List.length swap)));
        ("supersteps", J.Num (float_of_int iters_co));
        ("neighbours", J.Num (float_of_int neighbours));
        ("msgs_coalesced", J.Num (float_of_int msgs));
        ("kb_coalesced", J.Num (float_of_int bytes /. 1024.)) ]
  in
  (* footprint staling: the residual+probe program at the dist target.
     The probe nest writes u only along the global j = k = 1 edge, a
     plane the write footprint proves is never a mirrored block
     boundary, so the run must report stales avoided and answer
     bitwise-identically to serial. *)
  let footprint_staling =
    let ranks_fp = 4 in
    let src = B.residual ~nx:n ~ny:n ~nz:n ~niter:iters () in
    let copy_u a =
      let b = P.buffer_exn a "u" in
      Array.init (Bigarray.Array1.dim b.Rt.data) (fun i ->
          Bigarray.Array1.unsafe_get b.Rt.data i)
    in
    let a, _ =
      P.stencil ~target:(P.Dist ranks_fp) ~engine:P.Engine_vector src
    in
    (* deterministic counts: one untimed run, then a snapshot — group
       stats reset at every [P.run] *)
    P.run a;
    let u_dist = copy_u a in
    let msgs, avoided =
      match Option.map Dk.stats a.P.a_dist with
      | Some s ->
        ( List.fold_left (fun acc g -> acc + g.Dk.gs_msgs) 0 s.Dk.ds_groups,
          s.Dk.ds_stales_avoided )
      | None -> (0, 0)
    in
    if avoided = 0 then
      failures := "footprint staling: no stales avoided" :: !failures;
    let a_ser, _ = P.stencil ~target:P.Serial ~engine:P.Engine_vector src in
    P.run a_ser;
    let bitwise = copy_u a_ser = u_dist in
    P.shutdown a_ser;
    if not bitwise then
      failures := "footprint staling: dist differs from serial" :: !failures;
    let dt, _ = best_run_s a in
    P.shutdown a;
    J.Obj
      [ ("benchmark",
         J.Str (Printf.sprintf "residual+probe %d^3 x%d" n iters));
        ("ranks", J.Num (float_of_int ranks_fp));
        ("halo_msgs", J.Num (float_of_int msgs));
        ("stales_avoided", J.Num (float_of_int avoided));
        ("mcells", J.Num (mcells_of ~cells:(n * n * n) dt));
        ("bitwise_vs_serial", J.Bool bitwise) ]
  in
  let json =
    J.Obj
      [ ("benchmark",
         J.Str (Printf.sprintf "gauss_seidel %d^3 x%d, dist target" n iters));
        ("engine", J.Str "vector");
        ("strong", J.List strong); ("weak", J.List weak);
        ("projected", J.List projected);
        ("model_gate",
         J.Obj
           [ ("ranks", J.Num 8.); ("floor", J.Num model_floor);
             ("measured_mcells", J.Num !measured_8);
             ("model_mcells", J.Num model_8) ]);
        ("coalescing", coalescing);
        ("footprint_staling", footprint_staling);
        ("overlap_vs_blocking",
         J.Obj
           [ ("ranks", J.Num (float_of_int ranks_ovb));
             ("overlap_mcells", J.Num ov);
             ("blocking_mcells", J.Num bl);
             ("ratio", J.Num (ov /. bl)) ]) ]
  in
  let path = "BENCH_dmp.json" in
  let oc = open_out path in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  (* self-validate what was just written *)
  let reread =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (match J.of_string reread with
  | parsed ->
    if
      J.member "strong" parsed = None
      || J.member "overlap_vs_blocking" parsed = None
      || J.member "projected" parsed = None
      || J.member "coalescing" parsed = None
      || J.member "footprint_staling" parsed = None
    then
      failures :=
        (path
        ^ ": missing \
           strong/overlap_vs_blocking/projected/coalescing/footprint_staling")
        :: !failures
  | exception J.Parse_error e ->
    failures := (path ^ ": unparseable: " ^ e) :: !failures);
  Printf.printf
    "distributed scaling written to %s (%d strong points, overlap/blocking \
     %.2f)\n"
    path (List.length strong) (ov /. bl);
  if !failures <> [] then begin
    List.iter (fun f -> Printf.eprintf "FAIL %s\n" f) !failures;
    exit 1
  end

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let row fmt = Printf.printf fmt

(* ------------------------------------------------------------------ *)
(* Measured substrate numbers                                          *)
(* ------------------------------------------------------------------ *)

let measure_pipeline ~src ~cells_per_run ~label target =
  Cal.measure ~label ~cells_per_iter:cells_per_run
    ~min_seconds:(if !quick then 0.1 else 0.4)
    (fun () ->
      let a, _ = P.stencil ~target src in
      P.run a;
      P.shutdown a)

let measure_flang ~src ~cells_per_run ~label =
  Cal.measure ~label ~cells_per_iter:cells_per_run
    ~min_seconds:(if !quick then 0.1 else 0.4)
    (fun () ->
      let a = P.flang_only src in
      P.run a)

(* measured single-core GS + PW at substrate scale *)
let figure2_measured () =
  let n_jit = if !quick then 32 else 48 in
  let n_interp = if !quick then 12 else 16 in
  let iters = 2 in
  let cells n = float_of_int (n * n * n * iters) in
  Printf.printf
    "\nMEASURED on this machine (substrate tiers; grids %d^3 / %d^3):\n"
    n_jit n_interp;
  (* Gauss-Seidel *)
  let gs_flang =
    measure_flang
      ~src:(B.gauss_seidel ~nx:n_interp ~ny:n_interp ~nz:n_interp
              ~niter:iters ())
      ~cells_per_run:(cells n_interp)
      ~label:"GS  Flang only (FIR interpreter)"
  in
  let gs_st =
    measure_pipeline
      ~src:(B.gauss_seidel ~nx:n_jit ~ny:n_jit ~nz:n_jit ~niter:iters ())
      ~cells_per_run:(cells n_jit)
      ~label:"GS  Stencil (compiled kernels)" P.Serial
  in
  let gs_vendor =
    let u = V.grid3 ~nx:n_jit ~ny:n_jit ~nz:n_jit in
    let unew = V.grid3 ~nx:n_jit ~ny:n_jit ~nz:n_jit in
    V.init_linear u;
    Cal.measure ~label:"GS  Cray-class (vendor kernels)"
      ~cells_per_iter:(cells n_jit)
      ~min_seconds:(if !quick then 0.1 else 0.4)
      (fun () -> V.gs3d_run ~u ~unew ~iters ())
  in
  (* PW advection *)
  let pw_flang =
    measure_flang
      ~src:(B.pw_advection ~nx:n_interp ~ny:n_interp ~nz:n_interp
              ~niter:iters ())
      ~cells_per_run:(cells n_interp)
      ~label:"PW  Flang only (FIR interpreter)"
  in
  let pw_st =
    measure_pipeline
      ~src:(B.pw_advection ~nx:n_jit ~ny:n_jit ~nz:n_jit ~niter:iters ())
      ~cells_per_run:(cells n_jit)
      ~label:"PW  Stencil (compiled kernels)" P.Serial
  in
  let pw_vendor =
    let g () = V.grid3 ~nx:n_jit ~ny:n_jit ~nz:n_jit in
    let u = g () and v = g () and w = g () in
    let su = g () and sv = g () and sw = g () in
    V.init_linear u;
    Cal.measure ~label:"PW  Cray-class (vendor kernels)"
      ~cells_per_iter:(cells n_jit)
      ~min_seconds:(if !quick then 0.1 else 0.4)
      (fun () ->
        for _ = 1 to iters do
          V.pw_advect ~u ~v ~w ~su ~sv ~sw ~rdx:0.1 ~rdy:0.2 ~rdz:0.3 ()
        done)
  in
  print_endline
    (Cal.report [ gs_flang; gs_st; gs_vendor; pw_flang; pw_st; pw_vendor ]);
  Printf.printf
    "  measured substrate tier gap Stencil/Flang: GS %.0fx, PW %.0fx\n\
    \  (the substrate's interpreter-vs-JIT gap exceeds the paper's \
     compiler gap;\n\
    \   the calibrated model above carries the paper-shape factors of \
     ~2x and ~10x)\n"
    (Cal.mcells gs_st /. Cal.mcells gs_flang)
    (Cal.mcells pw_st /. Cal.mcells pw_flang)

(* ------------------------------------------------------------------ *)
(* Figure 2: single-core CPU, three problem sizes                      *)
(* ------------------------------------------------------------------ *)

let figure2 () =
  header "Figure 2: single-core CPU performance (MCells/s)";
  Printf.printf
    "MODEL (ARCHER2 AMD Rome core; paper sizes; shape target: Cray > \
     Stencil > Flang,\n  Stencil ~2x Flang on GS, ~10x on PW):\n\n";
  row "  %-14s %-12s %10s %10s %10s\n" "benchmark" "size" "Cray"
    "Flang only" "Stencil";
  List.iter
    (fun bench ->
      List.iter
        (fun size ->
          let v pipe = C.mcells ~bench ~pipe ~threads:1 () in
          row "  %-14s %-12s %10.1f %10.1f %10.1f\n"
            (C.benchmark_name bench) size (v C.Cray) (v C.Flang_only)
            (v C.Stencil_opt))
        [ "256^3"; "512^3"; "1024^3" ])
    [ C.Gauss_seidel; C.Pw_advection ];
  Printf.printf
    "  (single-core model throughput is size-independent: all three sizes \
     stream from DRAM)\n";
  figure2_measured ()

(* ------------------------------------------------------------------ *)
(* Figures 3 & 4: OpenMP thread scaling                                *)
(* ------------------------------------------------------------------ *)

let figure34 bench fig =
  header
    (Printf.sprintf "Figure %d: multithreaded %s, 2.1e9 cells (MCells/s)"
       fig (C.benchmark_name bench));
  row "  %-8s %12s %12s %12s\n" "threads" "Cray" "Flang only" "Stencil";
  List.iter
    (fun t ->
      let v pipe = C.mcells ~bench ~pipe ~threads:t () in
      let cray = v C.Cray and flang = v C.Flang_only in
      let st = v C.Stencil_opt in
      row "  %-8d %12.0f %12.0f %12.0f%s\n" t cray flang st
        (if st > cray then "   <- stencil wins" else ""))
    [ 1; 2; 4; 8; 16; 32; 64; 128 ];
  if bench = C.Pw_advection then
    Printf.printf
      "  (paper: the auto-parallelised stencil overtakes hand-written \
       OpenMP at 64 and 128 threads — fusion wins once bandwidth \
       saturates)\n"

(* measured OpenMP differential (correctness + relative cost on this
   container; true scaling needs >1 core) *)
let figure34_measured () =
  let n = if !quick then 24 else 32 in
  let iters = 2 in
  let src = B.gauss_seidel ~nx:n ~ny:n ~nz:n ~niter:iters () in
  let cells = float_of_int (n * n * n * iters) in
  Printf.printf
    "\nMEASURED auto-parallelised OpenMP path (%d core(s) visible to this \
     container):\n"
    (Fsc_rt.Domain_pool.recommended_size ());
  List.iter
    (fun threads ->
      let m =
        measure_pipeline ~src ~cells_per_run:cells
          ~label:(Printf.sprintf "GS Stencil omp.wsloop, %d threads" threads)
          (P.Openmp threads)
      in
      print_endline (Cal.report [ m ]))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Figure 5: GPU                                                       *)
(* ------------------------------------------------------------------ *)

let figure5 () =
  header "Figure 5: Nvidia V100 GPU performance (MCells/s, log-scale data)";
  Printf.printf "MODEL (V100 SXM2-16GB; 500 timesteps):\n\n";
  row "  %-14s %-8s %14s %16s %18s\n" "benchmark" "size" "OpenACC"
    "Stencil(initial)" "Stencil(optimised)";
  let run ~arrays ~bytes ~flops name sizes =
    List.iter
      (fun n ->
        let cells = float_of_int (n * n * n) in
        let v strategy =
          G.mcells ~strategy ~cells ~flops_per_cell:flops
            ~bytes_per_cell:bytes ~arrays
            ~array_bytes:(cells *. 8.0 *. float_of_int arrays)
            ~iters:500 ()
        in
        row "  %-14s %-8s %14.0f %16.1f %18.0f\n" name
          (Printf.sprintf "%d^3" n)
          (v G.Openacc_nvidia) (v G.Stencil_initial)
          (v G.Stencil_optimised))
      sizes
  in
  run ~arrays:2 ~bytes:32.0 ~flops:6.0 "Gauss-Seidel" [ 128; 256; 512 ];
  run ~arrays:6 ~bytes:64.0 ~flops:63.0 "PW advection" [ 128; 256; 512 ];
  (* measured: execute the real GPU pipelines against the simulator and
     report its clock *)
  let n = if !quick then 8 else 12 in
  let iters = 10 in
  Printf.printf
    "\nMEASURED on the simulated device (real extracted kernels, %d^3, %d \
     timesteps):\n"
    n iters;
  let sim_time target =
    let src = B.gauss_seidel ~nx:n ~ny:n ~nz:n ~niter:iters () in
    let a, _ = P.stencil ~target src in
    P.run a;
    let s =
      match a.P.a_ctx.Fsc_rt.Interp.gpu with
      | Some g -> Fsc_rt.Gpu_sim.stats g
      | None -> assert false
    in
    P.shutdown a;
    s
  in
  let si = sim_time (P.Gpu P.Gpu_initial) in
  let so = sim_time (P.Gpu P.Gpu_optimised) in
  let cells = float_of_int (n * n * n * iters) in
  row "  %-38s %10.1f MCells/s  (%d kB paged)\n"
    "GS Stencil (initial data approach)"
    (cells /. si.Fsc_rt.Gpu_sim.s_clock /. 1e6)
    (si.Fsc_rt.Gpu_sim.s_bytes_paged / 1024);
  row "  %-38s %10.1f MCells/s  (%d kB copied once)\n"
    "GS Stencil (optimised data approach)"
    (cells /. so.Fsc_rt.Gpu_sim.s_clock /. 1e6)
    (so.Fsc_rt.Gpu_sim.s_bytes_h2d / 1024)

(* ------------------------------------------------------------------ *)
(* Figure 6: distributed memory                                        *)
(* ------------------------------------------------------------------ *)

let figure6 () =
  header
    "Figure 6: distributed Gauss-Seidel on ARCHER2, 1.7e10 cells (MCells/s)";
  Printf.printf "MODEL (Slingshot, 128 ranks/node, 2-D decomposition):\n\n";
  let global = (2580, 2580, 2580) in
  row "  %-8s %-8s %16s %22s\n" "nodes" "cores" "Hand parallelised"
    "Stencil auto (DMP/MPI)";
  List.iter
    (fun nodes ->
      let ranks = nodes * 128 in
      let hand = N.mcells ~variant:N.Hand_cray ~global ~ranks () in
      let auto = N.mcells ~variant:N.Auto_dmp ~global ~ranks () in
      row "  %-8d %-8d %16.0f %22.0f\n" nodes ranks hand auto)
    [ 2; 4; 8; 16; 32; 64 ];
  Printf.printf
    "  (paper: hand version wins and scales better; auto reaches ~70,000 \
     MCells/s at 8192 cores)\n";
  (* measured: functional SPMD execution over simulated MPI *)
  let n = if !quick then 12 else 16 in
  let iters = 3 in
  let d = Fsc_dmp.Decomp.create ~global:(n, n, n) ~ranks:4 in
  let init name (i, j, k) =
    match name with
    | "u" ->
      V.gs_init i j k
    | _ -> 0.0
  in
  let t = Fsc_dmp.Dist_exec.create d ~fields:[ "u"; "unew" ] ~init in
  let local_grids t rank =
    let st = t.Fsc_dmp.Dist_exec.ranks.(rank) in
    let lu = Fsc_dmp.Dist_exec.field st "u" in
    let ln = Fsc_dmp.Dist_exec.field st "unew" in
    let lx, ly, lz = Fsc_dmp.Decomp.local_extents d rank in
    ( { V.g_buf = lu; V.g_nx = lx; V.g_ny = ly; V.g_nz = lz },
      { V.g_buf = ln; V.g_nx = lx; V.g_ny = ly; V.g_nz = lz } )
  in
  let t0 = Unix.gettimeofday () in
  Fsc_dmp.Dist_exec.iterate t ~iters ~swap_fields:[ "u" ]
    ~sweep:(fun t ~rank w ->
      let gu, gn = local_grids t rank in
      V.gs3d_sweep_in ~u:gu ~unew:gn ~jlo:w.Fsc_dmp.Dist_exec.w_jlo
        ~jhi:w.Fsc_dmp.Dist_exec.w_jhi ~klo:w.Fsc_dmp.Dist_exec.w_klo
        ~khi:w.Fsc_dmp.Dist_exec.w_khi ())
    ~finish:(fun t ~rank ->
      let gu, gn = local_grids t rank in
      V.gs3d_copyback ~u:gu ~unew:gn ())
    ();
  let dt = Unix.gettimeofday () -. t0 in
  let msgs, bytes = Fsc_dmp.Dist_exec.stats t in
  Printf.printf
    "\nMEASURED functional SPMD run: 4 simulated ranks, %d^3 global, %d \
     iters:\n  %.2f MCells/s host-side, %d halo messages, %d kB exchanged\n"
    n iters
    (float_of_int (n * n * n * iters) /. dt /. 1e6)
    msgs (bytes / 1024)

(* ------------------------------------------------------------------ *)
(* Headline summary (Section 4.2 / conclusions)                        *)
(* ------------------------------------------------------------------ *)

let headline () =
  header "Headline claims (paper Section 6)";
  let gs =
    C.mcells ~bench:C.Gauss_seidel ~pipe:C.Stencil_opt ~threads:1 ()
    /. C.mcells ~bench:C.Gauss_seidel ~pipe:C.Flang_only ~threads:1 ()
  in
  let pw =
    C.mcells ~bench:C.Pw_advection ~pipe:C.Stencil_opt ~threads:1 ()
    /. C.mcells ~bench:C.Pw_advection ~pipe:C.Flang_only ~threads:1 ()
  in
  Printf.printf
    "  stencil vs Flang-only single core: GS %.1fx, PW %.1fx (paper: ~2x \
     and ~10x)\n"
    gs pw;
  let pw_gpu strategy =
    G.mcells ~strategy ~cells:(256. ** 3.) ~flops_per_cell:63.
      ~bytes_per_cell:64. ~arrays:6
      ~array_bytes:((256. ** 3.) *. 48.)
      ~iters:500 ()
  in
  Printf.printf
    "  PW on V100, stencil-optimised vs hand OpenACC: %.1fx (paper: ~15x)\n"
    (pw_gpu G.Stencil_optimised /. pw_gpu G.Openacc_nvidia)

(* ------------------------------------------------------------------ *)
(* Future work (paper Section 6): multinode GPU projection             *)
(* ------------------------------------------------------------------ *)

let future_work () =
  header "Future work: multinode GPU (paper Section 6, fifth item)";
  Printf.printf
    "Gauss-Seidel, 2048^3 cells, one V100 per node (model, MCells/s):\n\n";
  row "  %-6s %18s %18s\n" "GPUs" "PCIe-staged halos" "GPUDirect/NVLink";
  let global = (2048, 2048, 2048) in
  List.iter
    (fun gpus ->
      let v gpudirect =
        N.multinode_gpu_mcells
          ~cluster:{ N.default_gpu_cluster with N.gc_gpudirect = gpudirect }
          ~global ~gpus ~bytes_per_cell:32.0 ~flops_per_cell:6.0 ()
      in
      row "  %-6d %18.0f %18.0f\n" gpus (v false) (v true))
    [ 1; 2; 4; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                   *)
(* ------------------------------------------------------------------ *)

let ablations () =
  header "Ablations (design-choice studies)";
  let n = if !quick then 24 else 40 in
  let iters = 2 in
  let cells = float_of_int (n * n * n * iters) in

  (* 1. stencil merging (the PW fusion): measured on this substrate *)
  Printf.printf "\n[A] stencil merging on PW advection (%d^3, measured):\n" n;
  let pw = B.pw_advection ~nx:n ~ny:n ~nz:n ~niter:iters () in
  let fused =
    Cal.measure ~label:"merge enabled (one fused sweep)"
      ~cells_per_iter:cells
      ~min_seconds:(if !quick then 0.1 else 0.4)
      (fun () ->
        let a, _ = P.stencil ~target:P.Serial ~merge:true pw in
        P.run a)
  in
  let unfused =
    Cal.measure ~label:"merge disabled (three sweeps)"
      ~cells_per_iter:cells
      ~min_seconds:(if !quick then 0.1 else 0.4)
      (fun () ->
        let a, _ = P.stencil ~target:P.Serial ~merge:false pw in
        P.run a)
  in
  print_endline (Cal.report [ fused; unfused ]);
  Printf.printf "  substrate fusion ratio: %.2fx\n"
    (Cal.mcells fused /. Cal.mcells unfused);
  (* fusion is a *bandwidth* optimisation; the closure JIT is
     compute-bound, so its measured effect here is ~1x — the effect that
     decides the paper's Figure 4 lives in the memory-traffic model: *)
  let model threads fused_flag =
    let bytes = if fused_flag then 48.0 else 96.0 in
    let bw = Fsc_perf.Cpu_model.bandwidth Fsc_perf.Machine.archer2_node
               threads in
    bw /. bytes /. 1e6
  in
  Printf.printf
    "  model @128 threads (bandwidth-bound): fused %.0f vs unfused %.0f \
     MCells/s -> %.2fx\n"
    (model 128 true) (model 128 false)
    (model 128 true /. model 128 false);

  (* 2. loop specialisation (the scf-parallel-loop-specialization pass) *)
  Printf.printf
    "\n[B] loop specialisation on Gauss-Seidel (%d^3, measured):\n" n;
  let gs = B.gauss_seidel ~nx:n ~ny:n ~nz:n ~niter:iters () in
  let spec =
    Cal.measure ~label:"specialised (unrolled inner loop)"
      ~cells_per_iter:cells
      ~min_seconds:(if !quick then 0.1 else 0.4)
      (fun () ->
        let a, _ = P.stencil ~target:P.Serial ~specialize:true gs in
        P.run a)
  in
  let nospec =
    Cal.measure ~label:"unspecialised"
      ~cells_per_iter:cells
      ~min_seconds:(if !quick then 0.1 else 0.4)
      (fun () ->
        let a, _ = P.stencil ~target:P.Serial ~specialize:false gs in
        P.run a)
  in
  print_endline (Cal.report [ spec; nospec ]);
  Printf.printf "  specialisation speedup: %.2fx\n"
    (Cal.mcells spec /. Cal.mcells nospec);

  (* 3. GPU tile sizes (paper: sensitive, some values fail at runtime) *)
  Printf.printf
    "\n[C] GPU tile-size sensitivity (paper Listing 4 uses 32,32,1):\n";
  List.iter
    (fun (tx, ty) ->
      let threads = tx * ty in
      let g = Fsc_rt.Gpu_sim.create () in
      let host = Rt.create [ 64; 64; 64 ] in
      Fsc_rt.Gpu_sim.alloc g host;
      Fsc_rt.Gpu_sim.memcpy_h2d g host;
      match
        Fsc_rt.Gpu_sim.launch g
          ~strategy:Fsc_rt.Gpu_sim.Strategy_device_resident
          ~block_threads:threads ~flops:1e6 ~bytes_accessed:2e6
          ~body:(fun () -> ())
          [ host ]
      with
      | () ->
        Printf.printf
          "  tile %2d,%2d,1  -> %4d threads/block: ok (%.1f us simulated)\n"
          tx ty threads
          (1e6 *. (Fsc_rt.Gpu_sim.stats g).Fsc_rt.Gpu_sim.s_clock)
      | exception Fsc_rt.Gpu_sim.Launch_failure msg ->
        Printf.printf "  tile %2d,%2d,1  -> %4d threads/block: RUNTIME \
                       FAILURE (%s)\n"
          tx ty threads msg)
    [ (8, 8); (16, 16); (32, 32); (64, 64) ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one grouped test per figure              *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  header "Bechamel micro-benchmarks (ns/run, OLS estimate)";
  let open Bechamel in
  let n = 16 in
  let iters = 1 in
  (* pre-built artifacts so the timed closures do pure execution *)
  let gs_src = B.gauss_seidel ~nx:n ~ny:n ~nz:n ~niter:iters () in
  let pw_src = B.pw_advection ~nx:n ~ny:n ~nz:n ~niter:iters () in
  let st_gs, _ = P.stencil ~target:P.Serial gs_src in
  let st_pw, _ = P.stencil ~target:P.Serial pw_src in
  let gpu_gs, _ = P.stencil ~target:(P.Gpu P.Gpu_optimised) gs_src in
  let flang_gs = P.flang_only gs_src in
  let vu = V.grid3 ~nx:n ~ny:n ~nz:n and vn = V.grid3 ~nx:n ~ny:n ~nz:n in
  V.init_linear vu;
  let pool = Fsc_rt.Domain_pool.create 2 in
  let d = Fsc_dmp.Decomp.create ~global:(n, n, n) ~ranks:4 in
  let dist =
    Fsc_dmp.Dist_exec.create d ~fields:[ "u" ] ~init:(fun _ _ -> 1.0)
  in
  let tests =
    Test.make_grouped ~name:"figures"
      [ (* Figure 2 trio *)
        Test.make ~name:"fig2/gs-flang-only"
          (Staged.stage (fun () -> P.run flang_gs));
        Test.make ~name:"fig2/gs-stencil"
          (Staged.stage (fun () -> P.run st_gs));
        Test.make ~name:"fig2/gs-cray-class"
          (Staged.stage (fun () -> V.gs3d_run ~u:vu ~unew:vn ~iters ()));
        Test.make ~name:"fig2/pw-stencil"
          (Staged.stage (fun () -> P.run st_pw));
        (* Figure 3/4: one work-shared sweep through the pool *)
        Test.make ~name:"fig34/gs-openmp-sweep"
          (Staged.stage (fun () -> V.gs3d_sweep ~pool ~u:vu ~unew:vn ()));
        (* Figure 5: a full GPU timestep against the simulator *)
        Test.make ~name:"fig5/gs-gpu-optimised"
          (Staged.stage (fun () -> P.run gpu_gs));
        (* Figure 6: one halo superstep over simulated MPI *)
        Test.make ~name:"fig6/halo-superstep"
          (Staged.stage (fun () ->
               Fsc_dmp.Dist_exec.iterate dist ~iters:1 ~swap_fields:[ "u" ]
                 ~sweep:(fun _ ~rank:_ _ -> ())
                 ()));
        (* compilation pipeline itself *)
        Test.make ~name:"pipeline/compile-gs"
          (Staged.stage (fun () ->
               let a, _ = P.stencil ~target:P.Serial gs_src in
               P.shutdown a)) ]
  in
  let cfg =
    Benchmark.cfg ~limit:200
      ~quota:(Time.second (if !quick then 0.25 else 0.6))
      ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> rows := (name, est) :: !rows
      | _ -> rows := (name, Float.nan) :: !rows)
    results;
  List.iter
    (fun (name, est) -> Printf.printf "  %-36s %14.0f ns/run\n" name est)
    (List.sort compare !rows);
  Fsc_rt.Domain_pool.shutdown pool

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf
    "fsc benchmark harness — reproducing Brown et al., \"Fortran \
     performance optimisation and auto-parallelisation by leveraging \
     MLIR-based domain specific abstractions in Flang\" (SC-W 2023)\n";
  if !kernels_only then begin
    write_kernels_json ();
    exit 0
  end;
  if !dist_only then begin
    write_dmp_json ();
    exit 0
  end;
  if !serve_only then begin
    write_serve_json ();
    exit 0
  end;
  write_pipeline_json ();
  write_analysis_json ();
  write_serve_json ();
  write_kernels_json ();
  write_dmp_json ();
  if want 2 then figure2 ();
  if want 3 then figure34 C.Gauss_seidel 3;
  if want 4 then figure34 C.Pw_advection 4;
  if want 3 || want 4 then figure34_measured ();
  if want 5 then figure5 ();
  if want 6 then figure6 ();
  headline ();
  if !figures = [] then begin
    future_work ();
    ablations ()
  end;
  if !run_bechamel then bechamel_suite ();
  print_newline ()

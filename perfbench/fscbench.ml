(* fscbench — the in-process half of the repository benchmark.

   perfbench/run.py owns the workloads, the clock around processes and
   sockets, and every metric. This executable does what needs the
   compiler's libraries:

     fscbench toolchain --work DIR         native toolchain preflight
     fscbench render --specs FILE --out DIR
                                           write generated programs
     fscbench ref FILE...                  Flang-only reference checksums
     fscbench cli-op --src F --cache-dir D --expect cold|warm
                                           one traced `sfc run` call
                                           sequence, layer by layer
     fscbench steady --work DIR --refs FILE --seconds T --seed S
                     [--min-rounds N] [--trace]
                                           the steady-solve workload
     fscbench steady-refs --out FILE       regenerate its references

   Every command prints one JSON object per line on stdout. Layers are
   timed from outside, around the calls into their public functions;
   nothing here adds spans to the libraries. *)

module P = Fsc_driver.Pipeline
module Cc = Fsc_driver.Compile_cache
module B = Fsc_driver.Benchmarks
module N = Fsc_codegen.Native
module Cache = Fsc_cache.Cache
module Obs = Fsc_obs.Obs
module Rt = Fsc_rt.Memref_rt

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

(* A JSON writer that keeps every digit: timings are published as
   measured, so numbers print with %.17g. *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Num f ->
    Buffer.add_string buf
      (if Float.is_finite f then Printf.sprintf "%.17g" f else "null")
  | Str s ->
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  | Arr xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        write buf (Str k);
        Buffer.add_char buf ':';
        write buf v)
      kvs;
    Buffer.add_char buf '}'

let emit j =
  let buf = Buffer.create 256 in
  write buf j;
  print_endline (Buffer.contents buf)

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("fscbench: " ^ msg);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Helpers                                                              *)
(* ------------------------------------------------------------------ *)

let now = Unix.gettimeofday
let ms_since t0 = (now () -. t0) *. 1000.

let timed f =
  let t0 = now () in
  let v = f () in
  (v, ms_since t0)

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Checksums travel as hexadecimal floats so the comparison with the
   reference is bitwise. *)
let checksums (a : P.artifact) =
  List.sort compare
    (List.map
       (fun (name, buf) -> (name, Rt.checksum buf))
       a.P.a_ctx.Fsc_rt.Interp.named_buffers)

let checksums_json cs =
  Obj (List.map (fun (n, v) -> (n, Str (Printf.sprintf "%h" v))) cs)

(* The command line: "--flag value" pairs and bare "--flag" switches. *)
let args = Array.to_list Sys.argv |> List.tl

let opt name =
  let rec go = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let req name =
  match opt name with Some v -> v | None -> die "missing %s" name

let flag name = List.mem name args

let native_ctx ?mode ~dir () =
  N.create
    ~cache:(Cache.create ~dir ~version:N.format_version ())
    ?mode ~l2_kb:(P.default_options ()).P.opt_l2_kb ()

(* ------------------------------------------------------------------ *)
(* Programs                                                             *)
(* ------------------------------------------------------------------ *)

(* One generated program: the generator name, the interior extents
   (one for the 2-D Laplace generator, three otherwise) and the
   iteration count. *)
let render_program gen dims niter =
  match (gen, dims) with
  | "gauss_seidel", [ nx; ny; nz ] -> B.gauss_seidel ~nx ~ny ~nz ~niter ()
  | "pw_advection", [ nx; ny; nz ] -> B.pw_advection ~nx ~ny ~nz ~niter ()
  | "laplace", [ n ] -> B.laplace ~n ~niter ()
  | "residual", [ nx; ny; nz ] -> B.residual ~nx ~ny ~nz ~niter ()
  | "smooth", [ nx; ny; nz ] -> B.smooth ~nx ~ny ~nz ~niter ()
  | _ -> die "unknown generator %s/%d" gen (List.length dims)

let json_field key j =
  match Obs.Json.member key j with
  | Some v -> v
  | None -> die "spec lacks %s" key

let json_int = function
  | Obs.Json.Num f -> int_of_float f
  | _ -> die "expected a number"

let json_str = function Obs.Json.Str s -> s | _ -> die "expected a string"

let cmd_render () =
  let out = req "--out" in
  mkdir_p out;
  let lines =
    String.split_on_char '\n' (read_file (req "--specs"))
    |> List.filter (fun l -> String.trim l <> "")
  in
  List.iter
    (fun line ->
      let j = Obs.Json.of_string line in
      let dims =
        match json_field "dims" j with
        | Obs.Json.List ds -> List.map json_int ds
        | _ -> die "dims must be a list"
      in
      let src =
        render_program (json_str (json_field "gen" j)) dims
          (json_int (json_field "niter" j))
      in
      write_file
        (Filename.concat out (json_str (json_field "name" j) ^ ".f90"))
        src)
    lines;
  emit (Obj [ ("rendered", Int (List.length lines)) ])

let reference src =
  let a = P.flang_only src in
  P.run a;
  checksums a

let cmd_ref () =
  List.iter
    (fun file ->
      emit
        (Obj
           [ ("file", Str file);
             ("checksums", checksums_json (reference (read_file file))) ]))
    (List.tl args)

let cmd_toolchain () =
  let work = req "--work" in
  mkdir_p work;
  let ctx = native_ctx ~dir:work () in
  emit
    (Obj
       [ ("ocaml", Str Sys.ocaml_version);
         ( "error",
           match N.toolchain_error ctx with Some e -> Str e | None -> Null ) ])

let counter_names =
  [ "codegen.native_runs"; "codegen.fallback_runs"; "pool.parallel_for";
    "pool.steals"; "pool.team_barriers"; "dmp.msgs"; "dmp.bytes"; "dmp.fused" ]

let counters_json () =
  let totals = Obs.counter_totals () in
  Obj
    (List.map
       (fun name ->
         (name, Int (Option.value (List.assoc_opt name totals) ~default:0)))
       counter_names)

(* ------------------------------------------------------------------ *)
(* cold-start: the CLI's call sequence, layer by layer                  *)
(* ------------------------------------------------------------------ *)

(* Mirrors `sfc run FILE --exec-engine native --cache-dir D`: one
   compile cache and one native ctx over the same directory, compile,
   link, run, shutdown (which drains the background build). Each call is
   timed on its own; the parent times the whole process, so what the
   layers miss (exec, runtime init, argument handling) is the
   difference. *)
let cmd_cli_op () =
  let src = read_file (req "--src") in
  let dir = req "--cache-dir" in
  let expect = req "--expect" in
  Obs.set_enabled true;
  let g0 = Gc.quick_stat () in
  let options = P.default_options ~target:P.Serial () in
  let cache = Cc.create_cache ~dir () in
  let native, create_ms = timed (fun () -> native_ctx ~dir ()) in
  let (ca, outcome), cc_ms = timed (fun () -> Cc.compile ~cache options src) in
  let a, link_ms =
    timed (fun () -> P.link ~engine:P.Engine_native ~native ca)
  in
  let (), run_ms = timed (fun () -> P.run a) in
  let (), shutdown_ms = timed (fun () -> P.shutdown a) in
  let g1 = Gc.quick_stat () in
  let kernel_ms =
    List.fold_left
      (fun acc (_, _, s) -> acc +. (s *. 1000.))
      0.
      (Obs.span_summary ~cat:"kernel" ())
  in
  let reports =
    List.filter_map
      (fun (_, impl) ->
        match impl with P.Native_jit (_, nk) -> Some (N.report nk) | _ -> None)
      a.P.a_kernels
  in
  let builds =
    List.length
      (List.filter (fun r -> r.N.rp_origin = Some N.Origin_built) reports)
  in
  let build_ms =
    List.fold_left
      (fun acc r -> acc +. Option.value r.N.rp_build_ms ~default:0.)
      0. reports
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let violation =
    match (expect, outcome) with
    | "cold", `Miss when builds >= 1 -> None
    | "cold", `Miss -> Some "cold run built no plugin"
    | "cold", _ -> Some "cold run did not miss the compile cache"
    | "warm", `Hit
      when builds = 0 && reports <> []
           && List.for_all
                (fun r -> r.N.rp_origin = Some N.Origin_cache)
                reports ->
      None
    | "warm", `Hit -> Some "warm rerun built or did not load cached plugins"
    | "warm", _ -> Some "warm rerun did not hit the compile cache"
    | e, _ -> die "--expect %s" e
  in
  emit
    (Obj
       [ ("violation", match violation with Some v -> Str v | None -> Null);
         ("native_create_ms", Num create_ms);
         ("cc_ms", Num cc_ms);
         ("link_ms", Num link_ms);
         ("run_ms", Num run_ms);
         ("kernel_ms", Num kernel_ms);
         ("shutdown_ms", Num shutdown_ms);
         ("build_ms", Num build_ms);
         ("builds", Int builds);
         ("native_nests", Int (sum (fun r -> r.N.rp_native_nests)));
         ("total_nests", Int (sum (fun r -> r.N.rp_total_nests)));
         ("gc.minor_words", Num (g1.Gc.minor_words -. g0.Gc.minor_words));
         ( "gc.major_collections",
           Int (g1.Gc.major_collections - g0.Gc.major_collections) );
         ("counters", counters_json ());
         ("checksums", checksums_json (checksums a)) ])

(* ------------------------------------------------------------------ *)
(* steady-solve                                                          *)
(* ------------------------------------------------------------------ *)

(* The fixed programs. Every working set is at least 4x the 2 MiB
   per-core L2 of the reference machine: Gauss-Seidel 96^3 holds two
   98^3 arrays (15 MB), Laplace 1024^2 two 1026^2 arrays (16.8 MB),
   PW advection 64^3 six 66^3 arrays (13.8 MB). *)
let steady_programs =
  [ ("gs", "gauss_seidel", [ 96; 96; 96 ], 8);
    ("laplace", "laplace", [ 1024 ], 12);
    ("pw", "pw_advection", [ 64; 64; 64 ], 4) ]

let steady_targets =
  [ ("serial", P.Serial); ("pool", P.Openmp 2); ("dist", P.Dist 4) ]

let program_json (case, gen, dims, niter) =
  [ ("case", Str case);
    ("gen", Str gen);
    ("dims", Arr (List.map (fun d -> Int d) dims));
    ("niter", Int niter) ]

let cmd_steady_refs () =
  let out = req "--out" in
  let entries =
    List.map
      (fun ((case, gen, dims, niter) as p) ->
        let cs, ms =
          timed (fun () -> reference (render_program gen dims niter))
        in
        Printf.eprintf "fscbench: reference %s in %.0f ms\n%!" case ms;
        Obj (program_json p @ [ ("checksums", checksums_json cs) ]))
      steady_programs
  in
  let buf = Buffer.create 1024 in
  write buf (Arr entries);
  Buffer.add_char buf '\n';
  write_file out (Buffer.contents buf)

(* Stored references, checked against the programs they claim to
   describe so an edit to the program table cannot silently reuse stale
   data. *)
let load_refs path =
  match Obs.Json.of_string (read_file path) with
  | Obs.Json.List entries ->
    List.map
      (fun e ->
        let case = json_str (json_field "case" e) in
        let p =
          match List.find_opt (fun (c, _, _, _) -> c = case) steady_programs with
          | Some p -> p
          | None -> die "reference for unknown case %s" case
        in
        let _, gen, dims, niter = p in
        let dims' =
          match json_field "dims" e with
          | Obs.Json.List ds -> List.map json_int ds
          | _ -> []
        in
        if json_str (json_field "gen" e) <> gen || dims' <> dims
           || json_int (json_field "niter" e) <> niter
        then die "reference for %s is stale: run with --regen-refs" case;
        let cs =
          match json_field "checksums" e with
          | Obs.Json.Obj kvs ->
            List.map (fun (n, v) -> (n, float_of_string (json_str v))) kvs
          | _ -> die "bad checksums for %s" case
        in
        (case, List.sort compare cs))
      entries
  | _ -> die "references must be a JSON list"

let same_bits expected got =
  List.length expected = List.length got
  && List.for_all2
       (fun (n, x) (m, y) ->
         n = m && Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       expected got

type steady_case = {
  sc_case : string;
  sc_target : string;
  sc_artifact : P.artifact;
}

(* Compile, link (native engine, synchronous builds into a private
   cache) and run every case once. Returns the linked cases, the set-up
   time, the per-layer timings of the set-up calls and the self-check
   violations: serial and pool cases must run native nests. *)
let steady_setup ~work =
  let t0 = now () in
  mkdir_p work;
  let native, create_ms =
    timed (fun () ->
        native_ctx ~mode:N.Sync ~dir:(Filename.concat work "native") ())
  in
  (match N.toolchain_error native with
  | Some e -> die "native toolchain unavailable: %s" e
  | None -> ());
  let cache = Cc.create_cache ~disk:false () in
  let miss = ref [] and link = ref [] and first = ref [] in
  let cases =
    List.concat_map
      (fun (case, gen, dims, niter) ->
        let src = render_program gen dims niter in
        List.map
          (fun (tname, target) ->
            let options = P.default_options ~target () in
            let (ca, _), ms = timed (fun () -> Cc.compile ~cache options src) in
            miss := ms :: !miss;
            let a, ms =
              timed (fun () -> P.link ~engine:P.Engine_native ~native ca)
            in
            link := ms :: !link;
            let (), ms = timed (fun () -> P.run a) in
            first := ms :: !first;
            { sc_case = case; sc_target = tname; sc_artifact = a })
          steady_targets)
      steady_programs
  in
  let setup_s = now () -. t0 in
  let reports c =
    List.filter_map
      (fun (_, impl) ->
        match impl with P.Native_jit (_, nk) -> Some (N.report nk) | _ -> None)
      c.sc_artifact.P.a_kernels
  in
  let all = List.concat_map reports cases in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 all in
  let violations =
    List.filter_map
      (fun c ->
        let native_nests =
          List.fold_left (fun acc r -> acc + r.N.rp_native_nests) 0 (reports c)
        in
        if c.sc_target = "dist" || native_nests > 0 then None
        else Some (Printf.sprintf "%s.%s ran no native nest" c.sc_case c.sc_target))
      cases
  in
  (* what a cache hit costs for the same programs, off the set-up clock *)
  let hit =
    List.map
      (fun (_, gen, dims, niter) ->
        let src = render_program gen dims niter in
        snd (timed (fun () -> Cc.compile ~cache (P.default_options ()) src)))
      steady_programs
  in
  let layers =
    [ ("native.create_ms", Num create_ms);
      ("cc.miss_ms", Num (median !miss));
      ("cc.hit_ms", Num (median hit));
      ("link_ms", Num (median !link));
      ("first_run_ms", Num (median !first));
      ( "native.build_ms",
        Num
          (List.fold_left
             (fun acc r -> acc +. Option.value r.N.rp_build_ms ~default:0.)
             0. all) );
      ( "native.builds",
        Int
          (List.length
             (List.filter (fun r -> r.N.rp_origin = Some N.Origin_built) all)) );
      ("native_nests", Int (sum (fun r -> r.N.rp_native_nests)));
      ("total_nests", Int (sum (fun r -> r.N.rp_total_nests))) ]
  in
  (cases, setup_s, layers, violations)


(* Seeded interleaving: each round runs every case once, in an order
   drawn from the seed, so no case always follows the same neighbour.
   A round is the workload's unit operation. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let cmd_steady () =
  let work = req "--work" in
  let seconds = float_of_string (req "--seconds") in
  let seed = int_of_string (req "--seed") in
  let min_rounds =
    int_of_string (Option.value (opt "--min-rounds") ~default:"1")
  in
  let trace = flag "--trace" in
  let refs = load_refs (req "--refs") in
  let cases, setup_s, setup_layers, violations = steady_setup ~work in
  let rng = Random.State.make [| seed |] in
  (* a traced run first measures untraced for a third of its time, so
     the tracing overhead is a same-process difference *)
  let phases =
    if trace then [ (false, seconds /. 3.); (true, seconds *. 2. /. 3.) ]
    else [ (false, seconds) ]
  in
  let solves = ref [] in
  let round = ref 0 in
  List.iter
    (fun (traced, budget) ->
      Obs.reset ();
      Obs.set_enabled traced;
      let t_start = now () in
      let round0 = !round in
      let min_n = if traced then 1 else min_rounds in
      while now () -. t_start < budget || !round - round0 < min_n do
        List.iter
          (fun c ->
            if traced then Obs.reset ();
            let g0 = Gc.quick_stat () in
            let t0 = now () in
            P.run c.sc_artifact;
            let ms = ms_since t0 in
            let g1 = Gc.quick_stat () in
            let layers =
              if traced then
                let kernel_ms =
                  List.fold_left
                    (fun acc (_, _, s) -> acc +. (s *. 1000.))
                    0.
                    (Obs.span_summary ~cat:"kernel" ())
                in
                let main_ms =
                  List.fold_left
                    (fun acc (name, _, s) ->
                      if name = "interp.run_main" then acc +. (s *. 1000.)
                      else acc)
                    0. (Obs.span_summary ())
                in
                [ ("kernel_ms", Num kernel_ms);
                  ("main_ms", Num main_ms);
                  ("counters", counters_json ());
                  ( "gc.minor_words",
                    Num (g1.Gc.minor_words -. g0.Gc.minor_words) );
                  ( "gc.major_collections",
                    Int (g1.Gc.major_collections - g0.Gc.major_collections) ) ]
              else []
            in
            let ok =
              same_bits (List.assoc c.sc_case refs) (checksums c.sc_artifact)
            in
            solves :=
              Obj
                ([ ("round", Int !round);
                   ("case", Str c.sc_case);
                   ("target", Str c.sc_target);
                   ("traced", Bool traced);
                   ("ms", Num ms);
                   ("ok", Bool ok) ]
                @ layers)
              :: !solves)
          (shuffle rng cases);
        incr round
      done)
    phases;
  Obs.set_enabled false;
  let shutdown_ms =
    List.map (fun c -> snd (timed (fun () -> P.shutdown c.sc_artifact))) cases
  in
  emit
    (Obj
       [ ("setup_s", Num setup_s);
         ( "setup_layers",
           Obj
             (("shutdown_ms", Num (median shutdown_ms))
             :: setup_layers) );
         ("violations", Arr (List.map (fun v -> Str v) violations));
         ("programs", Arr (List.map (fun p -> Obj (program_json p)) steady_programs));
         ("solves", Arr (List.rev !solves)) ])

let () =
  match args with
  | "toolchain" :: _ -> cmd_toolchain ()
  | "render" :: _ -> cmd_render ()
  | "ref" :: _ -> cmd_ref ()
  | "cli-op" :: _ -> cmd_cli_op ()
  | "steady" :: _ -> cmd_steady ()
  | "steady-refs" :: _ -> cmd_steady_refs ()
  | _ ->
    prerr_endline
      "usage: fscbench (toolchain|render|ref|cli-op|steady|steady-refs) ...";
    exit 2

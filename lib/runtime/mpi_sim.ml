(* Simulated MPI: SPMD execution of R ranks inside one process, with real
   halo buffers and per-rank mailboxes — the functional layer backing the
   distributed-memory experiments (Figure 6). The substrate is
   thread-safe: each destination rank owns a mutex-guarded mailbox, so
   ranks may post and take messages concurrently from pool workers. The
   halo-swap ordering discipline (everything posted in a communication
   phase is receivable in the next) is the caller's job — [Dist_exec]
   separates its phases with a pool-team barrier. Timing at
   scale comes from [Fsc_perf.Net_model]; this module is about
   correctness of decomposition + exchange. *)

type message = {
  m_src : int;
  m_dst : int;
  m_tag : int;
  m_payload : float array;
}

(* One inbox per destination rank. [mb_pending] is kept oldest-first so
   [recv] matches in posting order. *)
type mailbox = {
  mb_mutex : Mutex.t;
  mutable mb_pending : message list;
}

type t = {
  nranks : int;
  boxes : mailbox array;
  total_messages : int Atomic.t;
  total_bytes : int Atomic.t;
}

let create nranks =
  if nranks < 1 then invalid_arg "Mpi_sim.create: nranks must be >= 1";
  { nranks;
    boxes =
      Array.init nranks (fun _ ->
          { mb_mutex = Mutex.create (); mb_pending = [] });
    total_messages = Atomic.make 0;
    total_bytes = Atomic.make 0 }

let nranks t = t.nranks
let messages t = Atomic.get t.total_messages
let bytes t = Atomic.get t.total_bytes

let check_rank t what r =
  if r < 0 || r >= t.nranks then
    invalid_arg
      (Printf.sprintf "Mpi_sim.%s: rank %d out of range 0..%d" what r
         (t.nranks - 1))

let with_box t dst f =
  let box = t.boxes.(dst) in
  Mutex.lock box.mb_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock box.mb_mutex) (fun () -> f box)

(* Both endpoints are validated: a negative or out-of-range *source*
   would silently poison the mailbox and only surface as a mystifying
   recv miss on some other rank. *)
let send t ~src ~dst ~tag payload =
  check_rank t "send src" src;
  check_rank t "send dst" dst;
  with_box t dst (fun box ->
      box.mb_pending <-
        box.mb_pending
        @ [ { m_src = src; m_dst = dst; m_tag = tag; m_payload = payload } ]);
  ignore (Atomic.fetch_and_add t.total_messages 1);
  ignore (Atomic.fetch_and_add t.total_bytes (8 * Array.length payload))

let triple_to_string m =
  Printf.sprintf "%d->%d tag %d (%d cells)" m.m_src m.m_dst m.m_tag
    (Array.length m.m_payload)

let pending t =
  Array.to_list t.boxes
  |> List.concat_map (fun box ->
         Mutex.lock box.mb_mutex;
         Fun.protect
           ~finally:(fun () -> Mutex.unlock box.mb_mutex)
           (fun () ->
             List.map (fun m -> (m.m_src, m.m_dst, m.m_tag)) box.mb_pending))

let recv t ~src ~dst ~tag =
  check_rank t "recv src" src;
  check_rank t "recv dst" dst;
  with_box t dst (fun box ->
      let rec pick acc = function
        | [] ->
          (* a miss names what *is* queued for this rank, so a mismatched
             tag or a skipped exchange is diagnosable from the error *)
          let queued =
            match box.mb_pending with
            | [] -> "mailbox empty"
            | ms ->
              "pending: "
              ^ String.concat ", " (List.map triple_to_string ms)
          in
          invalid_arg
            (Printf.sprintf "Mpi_sim.recv: no message %d->%d tag %d (%s)"
               src dst tag queued)
        | m :: rest ->
          if m.m_src = src && m.m_dst = dst && m.m_tag = tag then begin
            box.mb_pending <- List.rev_append acc rest;
            m.m_payload
          end
          else pick (m :: acc) rest
      in
      pick [] box.mb_pending)

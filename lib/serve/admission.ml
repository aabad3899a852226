(* Bounded, per-client-fair admission for campaign requests.

   Refusing with [serve.busy] the moment [max_pending] campaigns are in
   flight turns a burst into a retry storm and lets one chatty client
   starve everyone else.  This module replaces the hard refusal with a
   small queueing discipline:

   - at most [max_active] campaigns run at once;
   - excess requests wait in per-client FIFOs, granted round-robin
     across clients — within a client strictly in arrival order, across
     clients one grant each in turn, so client A queueing 50 requests
     delays client B's single request by at most one campaign;
   - the queue is bounded overall ([max_queue]) and per client
     ([max_per_client]); past either bound the request is refused
     immediately with a [retry_after_ms] hint derived from observed
     campaign wall times, so a well-behaved client backs off for
     roughly one queue-drain instead of hammering;
   - a waiting request honours its own deadline and the daemon's drain
     flag, abandoning its ticket in both cases.

   It is a plain data structure driven by the daemon's one loop: every
   call decides at once, a lane freed by [release] goes to the next
   waiter within that call, and the loop's timer ([expire]) and stop
   flag ([drain]) end the waits that no grant will.  Invariant: a
   waiter exists only while every lane is taken. *)

type refusal = { retry_after_ms : int }

type decision =
  | Admitted
  | Queued of { position : int; retry_after_ms : int }
  | Busy of refusal

type wake = Granted | Expired of refusal | Draining

type waiter = { deadline : float option; on_wake : wake -> unit }

type t = {
  max_active : int;
  max_queue : int;
  max_per_client : int;
  mutable active : int;
  mutable queued : int;  (* total waiters, all clients *)
  queues : (int, waiter Queue.t) Hashtbl.t;  (* client -> its waiters *)
  mutable rr : int list;  (* clients with waiters; head is served next *)
  mutable ewma_ms : float;  (* recent campaign wall time *)
}

let create ~max_active ~max_queue ~max_per_client () =
  { max_active; max_queue; max_per_client; active = 0; queued = 0;
    queues = Hashtbl.create 8; rr = []; ewma_ms = 100. }

(* Estimated wait for a newcomer: everything running or already queued
   ahead of it, paced by the recent campaign wall time spread over
   [max_active] lanes.  Clamped so a cold daemon still suggests a
   meaningful pause and a pathological EWMA cannot tell a client to
   come back tomorrow. *)
let hint q =
  let ahead = q.active + q.queued in
  let lanes = max 1 q.max_active in
  let ms = q.ewma_ms *. float_of_int (ahead + 1) /. float_of_int lanes in
  { retry_after_ms = max 50 (min 60_000 (int_of_float ms)) }

let admit q ~client ~deadline ~on_wake =
  let waiting =
    match Hashtbl.find_opt q.queues client with
    | Some cq -> Queue.length cq
    | None -> 0
  in
  if q.max_active <= 0 then
    (* a zero-width daemon is a deliberate "always busy" configuration
       (the admission-control tests rely on it) — refuse, never queue *)
    Busy (hint q)
  else if q.active < q.max_active && q.queued = 0 then begin
    (* fast path: a free lane and nobody waiting — no barging past an
       existing queue, which would defeat the FIFO *)
    q.active <- q.active + 1;
    Admitted
  end
  else if q.queued >= q.max_queue || waiting >= q.max_per_client then
    Busy (hint q)
  else begin
    if waiting = 0 then begin
      Hashtbl.replace q.queues client (Queue.create ());
      q.rr <- q.rr @ [ client ]
    end;
    Queue.add { deadline; on_wake } (Hashtbl.find q.queues client);
    q.queued <- q.queued + 1;
    Queued { position = q.queued; retry_after_ms = (hint q).retry_after_ms }
  end

let release q ~wall_ms =
  q.active <- q.active - 1;
  if wall_ms >= 0. then
    q.ewma_ms <- (0.8 *. q.ewma_ms) +. (0.2 *. wall_ms);
  match q.rr with
  | client :: rest when q.active < q.max_active ->
    (* grant the head client's oldest waiter and rotate that client to
       the round-robin tail, so the next grant goes elsewhere *)
    let cq = Hashtbl.find q.queues client in
    let w = Queue.pop cq in
    q.queued <- q.queued - 1;
    if Queue.is_empty cq then begin
      Hashtbl.remove q.queues client;
      q.rr <- rest
    end
    else q.rr <- rest @ [ client ];
    q.active <- q.active + 1;
    w.on_wake Granted
  | _ -> ()

(* Remove the waiters [gone] picks, in service order, before any of
   them is woken: a wake may call back into the queue. *)
let take q gone =
  let out = ref [] in
  List.iter
    (fun client ->
      let cq = Hashtbl.find q.queues client in
      let keep = Queue.create () in
      Queue.iter
        (fun w -> if gone w then out := w :: !out else Queue.add w keep)
        cq;
      if Queue.is_empty keep then Hashtbl.remove q.queues client
      else Hashtbl.replace q.queues client keep)
    q.rr;
  q.rr <- List.filter (Hashtbl.mem q.queues) q.rr;
  q.queued <- q.queued - List.length !out;
  List.rev !out

let deadline w = Option.value w.deadline ~default:infinity

let expire q ~now =
  List.iter
    (fun w -> w.on_wake (Expired (hint q)))
    (take q (fun w -> now > deadline w));
  Hashtbl.fold
    (fun _ cq acc ->
      Queue.fold (fun acc w -> Float.min acc (deadline w)) acc cq)
    q.queues infinity

let drain q = List.iter (fun w -> w.on_wake Draining) (take q (fun _ -> true))

type snapshot = { active : int; queued : int }

let snapshot (q : t) = { active = q.active; queued = q.queued }

(* The POSIX model's system-call handler: implements file I/O, pipes, TCP
   and UDP sockets over the single-IP symbolic network, select(), the
   extended ioctls of paper Table 3, fault injection, and process exit /
   wait — all in terms of the engine's primitives and the persistent
   {!Env} state carried inside each execution state.

   Blocking calls return [Sys_block]: the engine puts the thread to sleep
   with the program counter still at the syscall, so the call re-executes
   from scratch when a notify wakes the thread (the retry idiom).

   Fault injection (when globally enabled and armed on the descriptor)
   forks every completed I/O operation into a success variant and an
   error-return variant that leaves the environment untouched. *)

module Imap = Map.Make (Int)
module E = Smt.Expr
module State = Engine.State
module Executor = Engine.Executor
module Errors = Engine.Errors
module Memory = Cvm.Memory

type env = Env.t

let i64 v = E.const ~width:64 (Int64.of_int v)

let env_of (st : env State.t) = st.State.env
let with_env st env = State.map_env st (fun _ -> env)

let conc cfg st e =
  let st, v = Executor.concretize cfg st e in
  (st, Int64.to_int v)

(* Wake an event wait list plus the global select list. *)
let wake_event st env wl =
  let st = State.wake_all st wl in
  State.wake_all st env.Env.select_wl

(* --- guest memory ------------------------------------------------------------ *)

let load_bytes (st : env State.t) ~addr ~len =
  let pid = State.current_pid st in
  List.init len (fun i -> Memory.load st.State.mem ~pid ~addr:(addr + i) ~len:1)

let store_bytes (st : env State.t) ~addr bytes =
  let pid = State.current_pid st in
  let mem =
    List.fold_left
      (fun (mem, i) b -> (Memory.store mem ~pid ~addr:(addr + i) b, i + 1))
      (st.State.mem, 0) bytes
    |> fst
  in
  { st with State.mem }

let store_i32 (st : env State.t) ~addr v =
  let pid = State.current_pid st in
  { st with State.mem = Memory.store st.State.mem ~pid ~addr (E.const ~width:32 (Int64.of_int v)) }

let read_path cfg st ptr_e =
  let st, addr = conc cfg st ptr_e in
  (st, Memory.read_cstring st.State.mem ~pid:(State.current_pid st) ~addr)

(* --- fault injection wrapper ----------------------------------------------------- *)

(* [inject pre fd ~write ok]: if injection applies, fork into the
   completed operation and an error return computed from the pre-call
   state (so the fault variant has no side effects). *)
let inject (pre : env State.t) fd ~write (ok : env State.t * int) : env Executor.sys_outcome =
  let st_ok, v_ok = ok in
  if Env.should_inject (env_of pre) fd ~write then
    let st_fault = with_env pre (Env.record_fault (env_of pre)) in
    Executor.Sys_choices [ (st_ok, i64 v_ok); (st_fault, i64 Sysno.efault) ]
  else Executor.Sys_ret (st_ok, i64 v_ok)

(* Block on [wl] — or return EAGAIN when the descriptor is nonblocking. *)
let block_or_again (fd : Env.fd) st wl =
  if fd.Env.nonblock then Executor.Sys_ret (st, i64 Sysno.eagain)
  else Executor.Sys_block (st, wl)

(* --- descriptor helpers -------------------------------------------------------------- *)

let with_fd (st : env State.t) fdnum k =
  match Env.lookup_fd (env_of st) (State.current_pid st) fdnum with
  | None -> Executor.Sys_ret (st, i64 Sysno.ebadf)
  | Some fd -> k fd

(* --- read ------------------------------------------------------------------------------- *)

(* Copy [bytes] into the guest buffer and return their count. *)
let deliver st ~buf bytes : env State.t * int =
  let st = store_bytes st ~addr:buf bytes in
  (st, List.length bytes)

let read_file cfg st fd fdnum ~path ~pos ~flags ~buf ~len =
  ignore cfg;
  match Env.Smap.find_opt path (env_of st).Env.files with
  | None -> Executor.Sys_ret (st, i64 Sysno.ebadf)
  | Some file ->
    let avail = min len (file.Env.fsize - pos) in
    if avail <= 0 then inject st fd ~write:false (st, Sysno.eof)
    else begin
      let bytes = List.init avail (fun i -> Env.file_read_byte file (pos + i)) in
      let st', n = deliver st ~buf bytes in
      let env = env_of st' in
      let st' =
        with_env st'
          (Env.set_fd env (State.current_pid st') fdnum
             { fd with Env.kind = Env.Kfile { path; pos = pos + n; flags } })
      in
      inject st fd ~write:false (st', n)
    end

(* Read from a stream buffer.  With SIO_PKT_FRAGMENT set, fork one variant
   per possible fragment size 1..avail (paper section 5.1, "Network
   Conditions"). *)
let read_stream st fd ~sid ~buf ~len =
  let env = env_of st in
  let s = Env.stream_exn env sid in
  if Fqueue.is_empty s.Env.data then
    if s.Env.closed_write then inject st fd ~write:false (st, Sysno.eof)
    else block_or_again fd st s.Env.rd_wl
  else begin
    let avail = min len (Fqueue.length s.Env.data) in
    let take n =
      let bytes, data = Fqueue.pop_n s.Env.data n in
      let env = Env.set_stream env sid { s with Env.data } in
      let st = with_env st env in
      let st = wake_event st env s.Env.wr_wl in
      deliver st ~buf bytes
    in
    if s.Env.fragment && avail > 1 then
      Executor.Sys_choices
        (List.init avail (fun i ->
             let st', n = take (i + 1) in
             (st', i64 n)))
    else inject st fd ~write:false (take avail)
  end

(* A symbolic-source descriptor (SIO_SYMBOLIC): reads yield fresh
   symbolic bytes — or, in test-case replay mode, the recorded concrete
   bytes for this input. *)
let read_symbolic cfg st fd fdnum ~buf ~len =
  let name = Printf.sprintf "fd%d#%d" fdnum (List.length st.State.sym_inputs) in
  let take st n =
    match cfg.Executor.concrete_inputs with
    | Some inputs when List.mem_assoc name inputs ->
      let data = List.assoc name inputs in
      let bytes =
        List.init n (fun i ->
            let b = if i < String.length data then Char.code data.[i] else 0 in
            E.const ~width:8 (Int64.of_int b))
      in
      deliver st ~buf bytes
    | Some _ | None ->
      let st, syms = State.fresh_input st ~name ~count:n in
      deliver st ~buf syms
  in
  let fragmented =
    match fd.Env.kind with
    | Env.Ktcp_conn { rx; _ } -> (Env.stream_exn (env_of st) rx).Env.fragment
    | Env.Kpipe_rd sid -> (Env.stream_exn (env_of st) sid).Env.fragment
    | Env.Kfile _ | Env.Kpipe_wr _ | Env.Ktcp_new | Env.Ktcp_bound _ | Env.Ktcp_listen _
    | Env.Kudp _ ->
      false
  in
  if fragmented && len > 1 then
    Executor.Sys_choices
      (List.init len (fun i ->
           let st', n = take st (i + 1) in
           (st', i64 n)))
  else inject st fd ~write:false (take st len)

let read_udp st fd ~port ~buf ~len =
  let env = env_of st in
  match port with
  | None -> Executor.Sys_ret (st, i64 Sysno.einval)
  | Some p -> (
    match Imap.find_opt p env.Env.udp_ports with
    | None -> Executor.Sys_ret (st, i64 Sysno.einval)
    | Some q -> (
      match Fqueue.pop q.Env.dgrams with
      | None -> block_or_again fd st q.Env.uwl
      | Some (dgram, dgrams) ->
        (* UDP semantics: one datagram per read, excess bytes discarded *)
        let taken = List.filteri (fun i _ -> i < len) dgram in
        let env = { env with Env.udp_ports = Imap.add p { q with Env.dgrams } env.Env.udp_ports } in
        let st' = with_env st env in
        inject st fd ~write:false (deliver st' ~buf taken)))

let sys_read cfg st fdnum_e buf_e len_e =
  let st, fdnum = conc cfg st fdnum_e in
  let st, buf = conc cfg st buf_e in
  let st, len = conc cfg st len_e in
  with_fd st fdnum (fun fd ->
      if len < 0 then Executor.Sys_ret (st, i64 Sysno.einval)
      else if len = 0 then Executor.Sys_ret (st, i64 0)
      else if fd.Env.sym_src then read_symbolic cfg st fd fdnum ~buf ~len
      else
        match fd.Env.kind with
        | Env.Kfile { path; pos; flags } -> read_file cfg st fd fdnum ~path ~pos ~flags ~buf ~len
        | Env.Kpipe_rd sid -> read_stream st fd ~sid ~buf ~len
        | Env.Ktcp_conn { rx; _ } -> read_stream st fd ~sid:rx ~buf ~len
        | Env.Kudp { port } -> read_udp st fd ~port ~buf ~len
        | Env.Kpipe_wr _ | Env.Ktcp_new | Env.Ktcp_bound _ | Env.Ktcp_listen _ ->
          Executor.Sys_ret (st, i64 Sysno.einval))

(* --- write ---------------------------------------------------------------------------------- *)

let write_file st fd fdnum ~path ~pos ~flags ~bytes =
  let env = env_of st in
  match Env.Smap.find_opt path env.Env.files with
  | None -> Executor.Sys_ret (st, i64 Sysno.ebadf)
  | Some file ->
    let pos = if flags land Sysno.o_append <> 0 then file.Env.fsize else pos in
    let file =
      List.fold_left
        (fun (f, i) b -> (Env.file_write_byte f (pos + i) b, i + 1))
        (file, 0) bytes
      |> fst
    in
    let n = List.length bytes in
    let env = { env with Env.files = Env.Smap.add path file env.Env.files } in
    let env =
      Env.set_fd env (State.current_pid st) fdnum
        { fd with Env.kind = Env.Kfile { path; pos = pos + n; flags } }
    in
    inject st fd ~write:true (with_env st env, n)

let write_stream st fd ~sid ~bytes =
  let env = env_of st in
  let s = Env.stream_exn env sid in
  if s.Env.closed_read then inject st fd ~write:true (st, Sysno.epipe)
  else begin
    let space = s.Env.capacity - Fqueue.length s.Env.data in
    if space <= 0 then block_or_again fd st s.Env.wr_wl
    else begin
      let taken = List.filteri (fun i _ -> i < space) bytes in
      let env = Env.set_stream env sid { s with Env.data = Fqueue.push_list s.Env.data taken } in
      let st = with_env st env in
      let st = wake_event st env s.Env.rd_wl in
      inject st fd ~write:true (st, List.length taken)
    end
  end

let sys_write cfg st fdnum_e buf_e len_e =
  let st, fdnum = conc cfg st fdnum_e in
  let st, buf = conc cfg st buf_e in
  let st, len = conc cfg st len_e in
  with_fd st fdnum (fun fd ->
      if len < 0 then Executor.Sys_ret (st, i64 Sysno.einval)
      else if len = 0 then Executor.Sys_ret (st, i64 0)
      else
        let bytes = load_bytes st ~addr:buf ~len in
        match fd.Env.kind with
        | Env.Kfile { path; pos; flags } -> write_file st fd fdnum ~path ~pos ~flags ~bytes
        | Env.Kpipe_wr sid -> write_stream st fd ~sid ~bytes
        | Env.Ktcp_conn { tx; _ } -> write_stream st fd ~sid:tx ~bytes
        | Env.Kpipe_rd _ | Env.Ktcp_new | Env.Ktcp_bound _ | Env.Ktcp_listen _ | Env.Kudp _ ->
          Executor.Sys_ret (st, i64 Sysno.einval))

(* --- open / close / dup / lseek ---------------------------------------------------------------- *)

let sys_open cfg st path_e flags_e =
  let st, path = read_path cfg st path_e in
  let st, flags = conc cfg st flags_e in
  let env = env_of st in
  let exists = Env.Smap.mem path env.Env.files in
  if (not exists) && flags land Sysno.o_creat = 0 then Executor.Sys_ret (st, i64 Sysno.enoent)
  else begin
    let env =
      if (not exists) || flags land Sysno.o_trunc <> 0 then
        { env with Env.files = Env.Smap.add path (Env.file_of_bytes "") env.Env.files }
      else env
    in
    let pos =
      if flags land Sysno.o_append <> 0 then
        match Env.Smap.find_opt path env.Env.files with Some f -> f.Env.fsize | None -> 0
      else 0
    in
    let env, fdnum =
      Env.alloc_fd env (State.current_pid st) (Env.plain_fd (Env.Kfile { path; pos; flags }))
    in
    Executor.Sys_ret (with_env st env, i64 fdnum)
  end

let close_stream_end env sid ~read_side =
  let s = Env.stream_exn env sid in
  let s = if read_side then { s with Env.closed_read = true } else { s with Env.closed_write = true } in
  (Env.set_stream env sid s, s)

let sys_close cfg st fdnum_e =
  let st, fdnum = conc cfg st fdnum_e in
  with_fd st fdnum (fun fd ->
      let pid = State.current_pid st in
      let env = Env.remove_fd (env_of st) pid fdnum in
      let env, wls =
        match fd.Env.kind with
        | Env.Kpipe_rd sid ->
          let env, s = close_stream_end env sid ~read_side:true in
          (env, [ s.Env.wr_wl ])
        | Env.Kpipe_wr sid ->
          let env, s = close_stream_end env sid ~read_side:false in
          (env, [ s.Env.rd_wl ])
        | Env.Ktcp_conn { rx; tx } ->
          let env, srx = close_stream_end env rx ~read_side:true in
          let env, stx = close_stream_end env tx ~read_side:false in
          (env, [ srx.Env.wr_wl; stx.Env.rd_wl ])
        | Env.Ktcp_listen port -> ({ env with Env.listeners = Imap.remove port env.Env.listeners }, [])
        | Env.Kfile _ | Env.Ktcp_new | Env.Ktcp_bound _ | Env.Kudp _ -> (env, [])
      in
      let st = with_env st env in
      let st = List.fold_left (fun st wl -> wake_event st env wl) st wls in
      Executor.Sys_ret (st, i64 0))

(* fcntl: F_GETFL returns the status flags; F_SETFL sets O_NONBLOCK. *)
let sys_fcntl cfg st fdnum_e cmd_e arg_e =
  let st, fdnum = conc cfg st fdnum_e in
  let st, cmd = conc cfg st cmd_e in
  let st, arg = conc cfg st arg_e in
  with_fd st fdnum (fun fd ->
      if cmd = Sysno.f_getfl then
        Executor.Sys_ret (st, i64 (if fd.Env.nonblock then Sysno.o_nonblock else 0))
      else if cmd = Sysno.f_setfl then begin
        let fd = { fd with Env.nonblock = arg land Sysno.o_nonblock <> 0 } in
        Executor.Sys_ret (with_env st (Env.set_fd (env_of st) (State.current_pid st) fdnum fd), i64 0)
      end
      else Executor.Sys_ret (st, i64 Sysno.einval))

(* dup2: duplicate onto a specific descriptor number (closing any previous
   occupant's slot entry; stream end-close bookkeeping is dup-unaware, as
   noted in the close() model). *)
let sys_dup2 cfg st fdnum_e newfd_e =
  let st, fdnum = conc cfg st fdnum_e in
  let st, newfd = conc cfg st newfd_e in
  with_fd st fdnum (fun fd ->
      if newfd < 0 then Executor.Sys_ret (st, i64 Sysno.ebadf)
      else if newfd = fdnum then Executor.Sys_ret (st, i64 newfd)
      else begin
        let env = Env.set_fd (env_of st) (State.current_pid st) newfd fd in
        Executor.Sys_ret (with_env st env, i64 newfd)
      end)

let sys_dup cfg st fdnum_e =
  let st, fdnum = conc cfg st fdnum_e in
  with_fd st fdnum (fun fd ->
      let env, fdnum' = Env.alloc_fd (env_of st) (State.current_pid st) fd in
      Executor.Sys_ret (with_env st env, i64 fdnum'))

let sys_lseek cfg st fdnum_e off_e whence_e =
  let st, fdnum = conc cfg st fdnum_e in
  let st, off = conc cfg st off_e in
  let st, whence = conc cfg st whence_e in
  with_fd st fdnum (fun fd ->
      match fd.Env.kind with
      | Env.Kfile { path; pos; flags } -> (
        match Env.Smap.find_opt path (env_of st).Env.files with
        | None -> Executor.Sys_ret (st, i64 Sysno.ebadf)
        | Some file ->
          let base = match whence with 0 -> 0 | 1 -> pos | 2 -> file.Env.fsize | _ -> -1 in
          if base < 0 || base + off < 0 then Executor.Sys_ret (st, i64 Sysno.einval)
          else begin
            let pos = base + off in
            let env =
              Env.set_fd (env_of st) (State.current_pid st) fdnum
                { fd with Env.kind = Env.Kfile { path; pos; flags } }
            in
            Executor.Sys_ret (with_env st env, i64 pos)
          end)
      | Env.Kpipe_rd _ | Env.Kpipe_wr _ | Env.Ktcp_new | Env.Ktcp_bound _ | Env.Ktcp_listen _
      | Env.Ktcp_conn _ | Env.Kudp _ ->
        Executor.Sys_ret (st, i64 Sysno.einval))

let sys_fstat_size cfg st fdnum_e =
  let st, fdnum = conc cfg st fdnum_e in
  with_fd st fdnum (fun fd ->
      match fd.Env.kind with
      | Env.Kfile { path; _ } -> (
        match Env.Smap.find_opt path (env_of st).Env.files with
        | Some file -> Executor.Sys_ret (st, i64 file.Env.fsize)
        | None -> Executor.Sys_ret (st, i64 Sysno.ebadf))
      | Env.Kpipe_rd _ | Env.Kpipe_wr _ | Env.Ktcp_new | Env.Ktcp_bound _ | Env.Ktcp_listen _
      | Env.Ktcp_conn _ | Env.Kudp _ ->
        Executor.Sys_ret (st, i64 Sysno.einval))

let sys_unlink cfg st path_e =
  let st, path = read_path cfg st path_e in
  let env = env_of st in
  if Env.Smap.mem path env.Env.files then
    Executor.Sys_ret (with_env st { env with Env.files = Env.Smap.remove path env.Env.files }, i64 0)
  else Executor.Sys_ret (st, i64 Sysno.enoent)

(* --- sockets --------------------------------------------------------------------------------------- *)

let sys_socket cfg st proto_e =
  let st, proto = conc cfg st proto_e in
  let kind =
    if proto = Sysno.sock_dgram then Env.Kudp { port = None } else Env.Ktcp_new
  in
  let env, fdnum = Env.alloc_fd (env_of st) (State.current_pid st) (Env.plain_fd kind) in
  Executor.Sys_ret (with_env st env, i64 fdnum)

let sys_bind cfg st fdnum_e port_e =
  let st, fdnum = conc cfg st fdnum_e in
  let st, port = conc cfg st port_e in
  with_fd st fdnum (fun fd ->
      let pid = State.current_pid st in
      let env = env_of st in
      match fd.Env.kind with
      | Env.Ktcp_new ->
        if Imap.mem port env.Env.listeners then Executor.Sys_ret (st, i64 Sysno.eaddrinuse)
        else
          Executor.Sys_ret
            (with_env st (Env.set_fd env pid fdnum { fd with Env.kind = Env.Ktcp_bound port }), i64 0)
      | Env.Kudp { port = None } ->
        if Imap.mem port env.Env.udp_ports then Executor.Sys_ret (st, i64 Sysno.eaddrinuse)
        else begin
          let env, uwl = Env.fresh_wl env in
          let env =
            { env with Env.udp_ports = Imap.add port { Env.dgrams = Fqueue.empty; uwl } env.Env.udp_ports }
          in
          let env = Env.set_fd env pid fdnum { fd with Env.kind = Env.Kudp { port = Some port } } in
          Executor.Sys_ret (with_env st env, i64 0)
        end
      | Env.Kudp { port = Some _ } | Env.Ktcp_bound _ | Env.Ktcp_listen _ | Env.Ktcp_conn _
      | Env.Kfile _ | Env.Kpipe_rd _ | Env.Kpipe_wr _ ->
        Executor.Sys_ret (st, i64 Sysno.einval))

let sys_listen cfg st fdnum_e =
  let st, fdnum = conc cfg st fdnum_e in
  with_fd st fdnum (fun fd ->
      let env = env_of st in
      match fd.Env.kind with
      | Env.Ktcp_bound port ->
        if Imap.mem port env.Env.listeners then Executor.Sys_ret (st, i64 Sysno.eaddrinuse)
        else begin
          let env, lwl = Env.fresh_wl env in
          let env =
            { env with Env.listeners = Imap.add port { Env.backlog = Fqueue.empty; lwl } env.Env.listeners }
          in
          let env =
            Env.set_fd env (State.current_pid st) fdnum { fd with Env.kind = Env.Ktcp_listen port }
          in
          Executor.Sys_ret (with_env st env, i64 0)
        end
      | Env.Ktcp_new | Env.Ktcp_listen _ | Env.Ktcp_conn _ | Env.Kudp _ | Env.Kfile _
      | Env.Kpipe_rd _ | Env.Kpipe_wr _ ->
        Executor.Sys_ret (st, i64 Sysno.einval))

let sys_accept cfg st fdnum_e =
  let st, fdnum = conc cfg st fdnum_e in
  with_fd st fdnum (fun fd ->
      let env = env_of st in
      match fd.Env.kind with
      | Env.Ktcp_listen port -> (
        match Imap.find_opt port env.Env.listeners with
        | None -> Executor.Sys_ret (st, i64 Sysno.einval)
        | Some l -> (
          match Fqueue.pop l.Env.backlog with
          | None -> block_or_again fd st l.Env.lwl
          | Some ((c2s, s2c), backlog) ->
            let env =
              { env with Env.listeners = Imap.add port { l with Env.backlog } env.Env.listeners }
            in
            let env, newfd =
              Env.alloc_fd env (State.current_pid st)
                (Env.plain_fd (Env.Ktcp_conn { rx = c2s; tx = s2c }))
            in
            Executor.Sys_ret (with_env st env, i64 newfd)))
      | Env.Ktcp_new | Env.Ktcp_bound _ | Env.Ktcp_conn _ | Env.Kudp _ | Env.Kfile _
      | Env.Kpipe_rd _ | Env.Kpipe_wr _ ->
        Executor.Sys_ret (st, i64 Sysno.einval))

let sys_connect cfg st fdnum_e port_e =
  let st, fdnum = conc cfg st fdnum_e in
  let st, port = conc cfg st port_e in
  with_fd st fdnum (fun fd ->
      let env = env_of st in
      match fd.Env.kind with
      | Env.Ktcp_new -> (
        match Imap.find_opt port env.Env.listeners with
        | None -> Executor.Sys_ret (st, i64 Sysno.econnrefused)
        | Some l ->
          let env, c2s = Env.new_stream env in
          let env, s2c = Env.new_stream env in
          let env =
            {
              env with
              Env.listeners =
                Imap.add port { l with Env.backlog = Fqueue.push l.Env.backlog (c2s, s2c) } env.Env.listeners;
            }
          in
          let env =
            Env.set_fd env (State.current_pid st) fdnum
              { fd with Env.kind = Env.Ktcp_conn { rx = s2c; tx = c2s } }
          in
          let st = with_env st env in
          let st = wake_event st env l.Env.lwl in
          Executor.Sys_ret (st, i64 0))
      | Env.Ktcp_bound _ | Env.Ktcp_listen _ | Env.Ktcp_conn _ | Env.Kudp _ | Env.Kfile _
      | Env.Kpipe_rd _ | Env.Kpipe_wr _ ->
        Executor.Sys_ret (st, i64 Sysno.einval))

let sys_sendto cfg st fdnum_e buf_e len_e port_e =
  let st, fdnum = conc cfg st fdnum_e in
  let st, buf = conc cfg st buf_e in
  let st, len = conc cfg st len_e in
  let st, port = conc cfg st port_e in
  with_fd st fdnum (fun fd ->
      match fd.Env.kind with
      | Env.Kudp _ -> (
        let env = env_of st in
        match Imap.find_opt port env.Env.udp_ports with
        | None ->
          (* nobody bound: the datagram silently vanishes, like UDP *)
          inject st fd ~write:true (st, len)
        | Some q ->
          let dgram = load_bytes st ~addr:buf ~len in
          let env =
            { env with Env.udp_ports = Imap.add port { q with Env.dgrams = Fqueue.push q.Env.dgrams dgram } env.Env.udp_ports }
          in
          let st' = with_env st env in
          let st' = wake_event st' env q.Env.uwl in
          inject st fd ~write:true (st', len))
      | Env.Kfile _ | Env.Kpipe_rd _ | Env.Kpipe_wr _ | Env.Ktcp_new | Env.Ktcp_bound _
      | Env.Ktcp_listen _ | Env.Ktcp_conn _ ->
        Executor.Sys_ret (st, i64 Sysno.einval))

(* --- select ------------------------------------------------------------------------------------------ *)

let fd_readable env fd =
  match fd.Env.kind with
  | Env.Kfile _ -> true
  | Env.Kpipe_rd sid | Env.Ktcp_conn { rx = sid; _ } -> Env.stream_readable (Env.stream_exn env sid)
  | Env.Ktcp_listen port -> (
    match Imap.find_opt port env.Env.listeners with
    | Some l -> not (Fqueue.is_empty l.Env.backlog)
    | None -> false)
  | Env.Kudp { port = Some p } -> (
    match Imap.find_opt p env.Env.udp_ports with
    | Some q -> not (Fqueue.is_empty q.Env.dgrams)
    | None -> false)
  | Env.Kpipe_wr _ | Env.Ktcp_new | Env.Ktcp_bound _ | Env.Kudp { port = None } -> false

let fd_writable env fd =
  match fd.Env.kind with
  | Env.Kfile _ -> true
  | Env.Kpipe_wr sid | Env.Ktcp_conn { tx = sid; _ } -> Env.stream_writable (Env.stream_exn env sid)
  | Env.Kudp _ -> true
  | Env.Kpipe_rd _ | Env.Ktcp_new | Env.Ktcp_bound _ | Env.Ktcp_listen _ -> false

(* select(rd_set, wr_set, nfds): the sets are guest byte arrays indexed by
   descriptor number (nonzero byte = interested).  On success the sets are
   rewritten to 1/0 readiness flags and the ready count is returned. *)
let sys_select cfg st rd_ptr_e wr_ptr_e nfds_e =
  let st, rd_ptr = conc cfg st rd_ptr_e in
  let st, wr_ptr = conc cfg st wr_ptr_e in
  let st, nfds = conc cfg st nfds_e in
  let pid = State.current_pid st in
  let env = env_of st in
  let interested ptr i =
    if ptr = 0 then false
    else
      let b = Memory.load st.State.mem ~pid ~addr:(ptr + i) ~len:1 in
      match E.const_value (Smt.Simplify.simplify b) with
      | Some v -> v <> 0L
      | None -> true (* symbolic interest counts as interested *)
  in
  let ready = ref 0 in
  let rd_result = Array.make (max nfds 0) false in
  let wr_result = Array.make (max nfds 0) false in
  for i = 0 to nfds - 1 do
    (match (interested rd_ptr i, Env.lookup_fd env pid i) with
    | true, Some fd when fd_readable env fd ->
      rd_result.(i) <- true;
      incr ready
    | _, _ -> ());
    match (interested wr_ptr i, Env.lookup_fd env pid i) with
    | true, Some fd when fd_writable env fd ->
      wr_result.(i) <- true;
      incr ready
    | _, _ -> ()
  done;
  if !ready = 0 then Executor.Sys_block (st, env.Env.select_wl)
  else begin
    let write_set st ptr result =
      if ptr = 0 then st
      else
        store_bytes st ~addr:ptr
          (Array.to_list (Array.map (fun b -> E.const ~width:8 (if b then 1L else 0L)) result))
    in
    let st = write_set st rd_ptr rd_result in
    let st = write_set st wr_ptr wr_result in
    Executor.Sys_ret (st, i64 !ready)
  end

(* --- ioctl ------------------------------------------------------------------------------------------------ *)

let sys_ioctl cfg st fdnum_e code_e arg_e =
  let st, fdnum = conc cfg st fdnum_e in
  let st, code = conc cfg st code_e in
  let st, arg = conc cfg st arg_e in
  with_fd st fdnum (fun fd ->
      let pid = State.current_pid st in
      let env = env_of st in
      if code = Sysno.sio_symbolic then begin
        match fd.Env.kind with
        | Env.Kfile { path; _ } -> (
          (* replace the file's contents with fresh symbolic bytes *)
          match Env.Smap.find_opt path env.Env.files with
          | None -> Executor.Sys_ret (st, i64 Sysno.ebadf)
          | Some file ->
            let st, syms = State.fresh_input st ~name:("file:" ^ path) ~count:file.Env.fsize in
            let env = env_of st in
            let env = { env with Env.files = Env.Smap.add path (Env.file_of_exprs syms) env.Env.files } in
            Executor.Sys_ret (with_env st env, i64 0))
        | Env.Kpipe_rd _ | Env.Kpipe_wr _ | Env.Ktcp_new | Env.Ktcp_bound _ | Env.Ktcp_listen _
        | Env.Ktcp_conn _ | Env.Kudp _ ->
          Executor.Sys_ret (with_env st (Env.set_fd env pid fdnum { fd with Env.sym_src = true }), i64 0)
      end
      else if code = Sysno.sio_pkt_fragment then begin
        let set_frag sid =
          let s = Env.stream_exn env sid in
          Executor.Sys_ret
            (with_env st (Env.set_stream env sid { s with Env.fragment = true }), i64 0)
        in
        match fd.Env.kind with
        | Env.Ktcp_conn { rx; _ } -> set_frag rx
        | Env.Kpipe_rd sid -> set_frag sid
        | Env.Kfile _ | Env.Kpipe_wr _ | Env.Ktcp_new | Env.Ktcp_bound _ | Env.Ktcp_listen _
        | Env.Kudp _ ->
          Executor.Sys_ret (st, i64 Sysno.einval)
      end
      else if code = Sysno.sio_fault_inj then begin
        let fd =
          {
            fd with
            Env.fi_rd = arg land Sysno.rd <> 0;
            Env.fi_wr = arg land Sysno.wr <> 0;
          }
        in
        Executor.Sys_ret (with_env st (Env.set_fd env pid fdnum fd), i64 0)
      end
      else Executor.Sys_ret (st, i64 Sysno.einval))

(* --- processes ---------------------------------------------------------------------------------------------- *)

let sys_exit cfg st code_e =
  let st, code = conc cfg st code_e in
  let pid = State.current_pid st in
  (* terminate every thread of this process *)
  let st = Executor.prim_process_terminate cfg st [ i64 code ] in
  let env = env_of st in
  let env = { env with Env.exit_codes = Imap.add pid (Int64.of_int code) env.Env.exit_codes } in
  let st = with_env st env in
  let st = wake_event st env env.Env.wait_wl in
  Executor.Sys_ret (st, i64 0)

let sys_waitpid cfg st pid_e =
  let st, pid = conc cfg st pid_e in
  let env = env_of st in
  match Imap.find_opt pid env.Env.exit_codes with
  | Some code ->
    let env = { env with Env.exit_codes = Imap.remove pid env.Env.exit_codes } in
    Executor.Sys_ret (with_env st env, E.const ~width:64 code)
  | None ->
    let alive =
      State.Imap.exists (fun _ th -> th.State.pid = pid && th.State.status <> State.Exited)
        st.State.threads
    in
    if alive then Executor.Sys_block (st, env.Env.wait_wl)
    else Executor.Sys_ret (st, i64 Sysno.echild)

(* --- test setup helpers ------------------------------------------------------------------------------------------ *)

let sys_mkfile cfg st path_e content_e len_e =
  let st, path = read_path cfg st path_e in
  let st, content = conc cfg st content_e in
  let st, len = conc cfg st len_e in
  let bytes = if content = 0 then [] else load_bytes st ~addr:content ~len in
  let env = env_of st in
  let env = { env with Env.files = Env.Smap.add path (Env.file_of_exprs bytes) env.Env.files } in
  Executor.Sys_ret (with_env st env, i64 0)

let sys_make_symbolic_file cfg st path_e size_e =
  let st, path = read_path cfg st path_e in
  let st, size = conc cfg st size_e in
  let st, syms = State.fresh_input st ~name:("file:" ^ path) ~count:size in
  let env = env_of st in
  let env = { env with Env.files = Env.Smap.add path (Env.file_of_exprs syms) env.Env.files } in
  Executor.Sys_ret (with_env st env, i64 0)

(* POSIX fork(): the engine primitive duplicates the address space and the
   calling thread and gives the child the return value 0; the model
   additionally gives the child a copy of the parent's descriptor table. *)
let sys_fork cfg st ~dst =
  ignore cfg;
  let st, child_pid = Executor.prim_process_fork st ~dst in
  let env = Env.clone_table (env_of st) ~parent:(State.current_pid st) ~child:child_pid in
  Executor.Sys_ret (with_env st env, i64 child_pid)

(* --- dispatcher ----------------------------------------------------------------------------------------------------- *)

let arity_error st num =
  Executor.Sys_err
    (st, Errors.Model_failure (Printf.sprintf "syscall %d: wrong number of arguments" num))

let handle : env Executor.handler =
 fun cfg st ~num ~dst ~args ->
  match (num, args) with
  | n, [] when n = Sysno.fork_ -> sys_fork cfg st ~dst
  | n, [ a; b ] when n = Sysno.open_ -> sys_open cfg st a b
  | n, [ a ] when n = Sysno.close -> sys_close cfg st a
  | n, [ a; b; c ] when n = Sysno.read || n = Sysno.recv -> sys_read cfg st a b c
  | n, [ a; b; c ] when n = Sysno.write || n = Sysno.send -> sys_write cfg st a b c
  | n, [ a ] when n = Sysno.pipe ->
    let st, ptr = conc cfg st a in
    let env, sid = Env.new_stream (env_of st) in
    let env, rd_fd = Env.alloc_fd env (State.current_pid st) (Env.plain_fd (Env.Kpipe_rd sid)) in
    let env, wr_fd = Env.alloc_fd env (State.current_pid st) (Env.plain_fd (Env.Kpipe_wr sid)) in
    let st = with_env st env in
    let st = store_i32 st ~addr:ptr rd_fd in
    let st = store_i32 st ~addr:(ptr + 4) wr_fd in
    Executor.Sys_ret (st, i64 0)
  | n, [ a ] when n = Sysno.socket -> sys_socket cfg st a
  | n, [ a; b ] when n = Sysno.bind -> sys_bind cfg st a b
  | n, [ a ] when n = Sysno.listen -> sys_listen cfg st a
  | n, [ a ] when n = Sysno.accept -> sys_accept cfg st a
  | n, [ a; b ] when n = Sysno.connect -> sys_connect cfg st a b
  | n, [ a; b; c; d ] when n = Sysno.sendto -> sys_sendto cfg st a b c d
  | n, [ a; b; c ] when n = Sysno.recvfrom -> sys_read cfg st a b c
  | n, [ a; b; c ] when n = Sysno.select -> sys_select cfg st a b c
  | n, [ a; b; c ] when n = Sysno.ioctl -> sys_ioctl cfg st a b c
  | n, [ a ] when n = Sysno.dup -> sys_dup cfg st a
  | n, [ a; b; c ] when n = Sysno.fcntl -> sys_fcntl cfg st a b c
  | n, [ a; b ] when n = Sysno.dup2 -> sys_dup2 cfg st a b
  | n, [ a; b; c ] when n = Sysno.lseek -> sys_lseek cfg st a b c
  | n, [ a ] when n = Sysno.fstat_size -> sys_fstat_size cfg st a
  | n, [ a ] when n = Sysno.unlink -> sys_unlink cfg st a
  | n, [ a ] when n = Sysno.waitpid -> sys_waitpid cfg st a
  | n, [] when n = Sysno.fi_enable ->
    Executor.Sys_ret (with_env st { (env_of st) with Env.fi_global = true }, i64 0)
  | n, [] when n = Sysno.fi_disable ->
    Executor.Sys_ret (with_env st { (env_of st) with Env.fi_global = false }, i64 0)
  | n, [ a; b; c ] when n = Sysno.mkfile -> sys_mkfile cfg st a b c
  | n, [ a; b ] when n = Sysno.make_symbolic_file -> sys_make_symbolic_file cfg st a b
  | n, [ a ] when n = Sysno.exit_ -> sys_exit cfg st a
  | n, [] when n = Sysno.time ->
    let env = env_of st in
    Executor.Sys_ret (with_env st { env with Env.clock = env.Env.clock + 1 }, i64 env.Env.clock)
  | n, _ ->
    if
      List.mem n
        [
          Sysno.open_; Sysno.close; Sysno.read; Sysno.write; Sysno.pipe; Sysno.socket;
          Sysno.bind; Sysno.listen; Sysno.accept; Sysno.connect; Sysno.send; Sysno.recv;
          Sysno.sendto; Sysno.recvfrom; Sysno.select; Sysno.ioctl; Sysno.dup; Sysno.lseek;
          Sysno.fstat_size; Sysno.unlink; Sysno.waitpid; Sysno.fi_enable; Sysno.fi_disable;
          Sysno.mkfile; Sysno.make_symbolic_file; Sysno.exit_; Sysno.time; Sysno.fork_;
          Sysno.fcntl; Sysno.dup2;
        ]
    then arity_error st num
    else
      Executor.Sys_err (st, Errors.Model_failure (Printf.sprintf "unknown POSIX syscall %d" num))

let initial_env () = Env.init ()
